"""Cycle matroids of multigraphs and perspectives by vertex identification.

Edges carry the matroid element labels (exactly 1..n, each once); loops and
parallel edges are allowed and matter: a loop is a one-element circuit, a
parallel pair a two-element circuit.  A cycle matroid's rank table is
counted from one table of the edge sets whose incidence columns sum to zero
over GF(2): those inside S form S's cycle space, so there are
2^(|S| - r(S)) of them.  Identifying vertices coarsens the cycle structure,
and (cycle_matroid(G), cycle_matroid(G with identified vertices)) is always
a perspective.  A merged vertex keeps the name of its class's first member,
never a new name that another vertex might already hold.
"""

import functools
from collections import namedtuple

from . import matroid
from .errors import DomainError
from .setcore import GroundSet


class Multigraph(namedtuple("Multigraph", "vertices edges")):
    """Vertices are strings; edges are (label, u, v) with u = v for a loop."""

    __slots__ = ()

    def __new__(cls, vertices, edges):
        vertices = tuple(vertices)
        edges = tuple((l, u, v) for l, u, v in edges)
        vset = set(vertices)
        if len(vset) != len(vertices):
            raise DomainError("duplicate vertex names")
        labels = sorted(l for l, _, _ in edges)
        if labels != list(range(1, len(labels) + 1)):
            raise DomainError(
                f"edge labels must be exactly 1..{len(labels)}, each used once; got {labels}"
            )
        for _, u, v in edges:
            if u not in vset or v not in vset:
                raise DomainError(f"edge endpoint {u!r} or {v!r} is not a declared vertex")
        return super().__new__(cls, vertices, edges)

    @classmethod
    def _make(cls, iterable):  # so _replace validates too
        return cls(*iterable)


def components(vertices, pairs) -> tuple:
    """Classes of the equivalence on `vertices` generated by the (u, v) pairs,
    by union-find; classes and their members follow the order of `vertices`."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for u, v in pairs:
        parent[find(u)] = find(v)
    classes = {}
    for v in vertices:
        classes.setdefault(find(v), []).append(v)
    return tuple(map(tuple, classes.values()))


def cycle_matroid(g: Multigraph, ground: GroundSet | None = None) -> matroid.Matroid:
    """Matroid on the edge labels whose independent sets are the forests of g.

    An edge set is dependent iff it holds a nonempty subset whose incidence
    columns sum to zero over GF(2), an edge-disjoint union of circuits
    (Veblen); a loop's column is zero.  Those subsets are counted, and
    their flags are the only input: there are 2^null(E) - 1 of them, which
    sets the lane width.  Nothing is re-validated.
    """
    m = len(g.edges)
    if ground is None:
        ground = GroundSet(m)
    elif ground.mask != (1 << m) - 1:
        raise DomainError(f"ground set labels {sorted(ground.order)} are not the edge labels 1..{m}")
    return matroid.Matroid._from_zero_sums(ground, _zero_sums(g))


def _zero_sums(g: Multigraph) -> bytearray:
    """Byte lanes, 1 at each nonempty edge set whose incidence columns sum to
    zero over GF(2) and 0 elsewhere, 8 vertex rows (one byte plane) at a
    time.  The first vertex's row is left out: every column has two ones or
    none, so it sums the others.  In each plane the sums of the low edges,
    those that number a lane inside one block of matroid._BLOCK lanes, are
    built by doubling: sums[S + e] = sums[S] ^ column(e).  Block k's sums
    are those XORed with h, the sum of the high edges that number k, so
    the block sums to zero where the low sums equal h: one translate flags
    it, and later planes AND their flags in.  Only the flags and one
    block's sums are held at once."""
    row = {v: 1 << k for k, v in enumerate(g.vertices[1:])}
    columns = [row.get(u, 0) ^ row.get(v, 0) for _, u, v in sorted(g.edges)]  # by label
    low = min(len(columns), matroid._BLOCK.bit_length() - 1)
    size = 1 << low
    zero = bytearray(1 << len(columns))
    for plane in range(0, len(row) or 1, 8):  # a lone vertex has no row, but one plane
        sums = bytearray(1)
        for c in columns[:low]:
            sums += sums.translate(_xor_table((c >> plane) & 0xFF))
        high = [0]
        for c in columns[low:]:
            c = (c >> plane) & 0xFF
            high += [h ^ c for h in high]
        for k, h in enumerate(high):
            block = slice(k * size, (k + 1) * size)
            flags = sums.translate(bytes(h) + b"\x01" + bytes(255 - h))  # 1 where this plane sums to zero
            zero[block] = flags if not plane else (  # and where the planes before it do too
                int.from_bytes(zero[block], "little") & int.from_bytes(flags, "little")).to_bytes(size, "little")
    zero[0] = 0  # the empty set
    return zero


@functools.cache
def _xor_table(c: int) -> bytes:
    """The byte map v -> v ^ c."""
    return bytes(v ^ c for v in range(256))


def identify_vertices(g: Multigraph, classes) -> Multigraph:
    """Merge each class of the given vertex partition into one vertex.

    Edge labels survive; an edge inside a class becomes a loop.  Each class
    becomes the vertex named by its first member, a name no vertex of
    another class has.
    """
    classes = [tuple(c) for c in classes]
    flat = [v for c in classes for v in c]
    if sorted(flat) != sorted(g.vertices) or len(set(flat)) != len(flat):
        raise DomainError("classes do not partition the vertex set")
    name = {v: c[0] for c in classes for v in c}
    return Multigraph(
        vertices=tuple(dict.fromkeys(name[v] for v in g.vertices)),
        edges=tuple((l, name[u], name[v]) for l, u, v in g.edges),
    )
