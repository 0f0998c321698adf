"""Cycle matroids of multigraphs and perspectives by vertex identification.

Edges carry the matroid element labels (exactly 1..n, each once); loops and
parallel edges are allowed and matter: a loop is a one-element circuit, a
parallel pair a two-element circuit.  A cycle matroid is built from its
cycle space, whose fundamental cycles one union-find pass finds.
Identifying vertices coarsens the cycle structure, and (cycle_matroid(G),
cycle_matroid(G with identified vertices)) is always a perspective.  A
merged vertex keeps the name of its class's first member, never a new name
that another vertex might already hold.
"""

from dataclasses import dataclass
from itertools import accumulate, chain
from operator import xor

from .errors import DomainError
from .matroid import Matroid
from .setcore import GroundSet, bit


@dataclass(frozen=True)
class Multigraph:
    """Vertices are strings; edges are (label, u, v) with u = v for a loop."""

    vertices: tuple
    edges: tuple

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple((l, u, v) for l, u, v in self.edges))
        vset = set(self.vertices)
        if len(vset) != len(self.vertices):
            raise DomainError("duplicate vertex names")
        labels = sorted(l for l, _, _ in self.edges)
        if labels != list(range(1, len(labels) + 1)):
            raise DomainError(
                f"edge labels must be exactly 1..{len(labels)}, each used once; got {labels}"
            )
        for _, u, v in self.edges:
            if u not in vset or v not in vset:
                raise DomainError(f"edge endpoint {u!r} or {v!r} is not a declared vertex")


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


def cycle_matroid(g: Multigraph, ground: GroundSet | None = None) -> Matroid:
    """Matroid on the edge labels whose independent sets are the forests of g.

    An edge set is dependent iff it contains a nonzero vector of the cycle
    space over GF(2), each an edge-disjoint union of circuits (Veblen).  A
    union-find over the edges keeps, per vertex, the edge mask of its path to
    its parent; an edge whose ends share a root closes the fundamental cycle
    path(u) ^ path(v) ^ edge.  These span the cycle space, whose nonzero
    vectors, listed by Gray code, are closed upward; loops, in no other
    cycle, are closed upward on their own.  Nothing is re-validated.
    """
    m = len(g.edges)
    if ground is None:
        ground = GroundSet(m)
    elif ground.size != m:
        raise DomainError(f"ground set has {ground.size} elements but the graph has {m} edges")
    index = {v: k for k, v in enumerate(g.vertices)}
    parent = list(range(len(index)))
    path = [0] * len(index)

    def find(v):
        to_root = 0
        while parent[v] != v:
            to_root ^= path[v]
            v = parent[v]
        return v, to_root

    cycles, loops = [], []
    for label, u, v in g.edges:
        (ru, pu), (rv, pv) = find(index[u]), find(index[v])
        if u == v:  # a circuit, inside every cycle-space vector that holds it
            loops.append(bit(label))
        elif ru == rv:
            cycles.append(pu ^ pv ^ bit(label))
        else:
            parent[ru] = rv
            path[ru] = pu ^ pv ^ bit(label)
    # Gray code: the j-th nonzero vector adds the cycle at j's lowest set bit
    steps = (cycles[(j & -j).bit_length() - 1] for j in range(1, 1 << len(cycles)))
    return Matroid._from_dependent(ground, chain(loops, accumulate(steps, xor)))


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
