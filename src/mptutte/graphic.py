"""Cycle matroids of multigraphs and perspectives by vertex identification.

Edges carry the matroid element labels (exactly 1..n, each once); loops and
parallel edges are allowed and matter: a loop is a one-element circuit, a
parallel pair a two-element circuit.  A cycle matroid is built from its
spanning forests, found by a union-find with early exit; its circuits are
derived from them when asked for.
Identifying vertices coarsens the cycle structure, and (cycle_matroid(G),
cycle_matroid(G with identified vertices)) is always a perspective.
"""

from dataclasses import dataclass
from itertools import combinations

from .errors import DomainError
from .matroid import Matroid, check_table_size
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
    """Matroid on the edge labels whose bases are the spanning forests of g.

    With c connected components the rank is r = |V| - c, and an r-edge set
    is a basis exactly when it is acyclic.  All C(|E|, r) <= 2^|E| such sets
    are tested by an index union-find that stops at the first edge closing a
    cycle.  Spanning forests satisfy basis exchange by theorem, so the family
    is not re-validated.
    """
    m = len(g.edges)
    if ground is None:
        ground = GroundSet(m)
    elif ground.size != m:
        raise DomainError(f"ground set has {ground.size} elements but the graph has {m} edges")
    check_table_size(ground.mask.bit_length())
    index = {v: k for k, v in enumerate(g.vertices)}
    ends = [(index[u], index[v]) for _, u, v in g.edges]
    masks = [bit(l) for l, _, _ in g.edges]
    roots = list(range(len(index)))
    r = len(roots) - len(components(roots, ends))
    candidates = zip(combinations(ends, r), combinations(masks, r))  # in step
    bases = [sum(edges) for pairs, edges in candidates if _acyclic(roots, pairs)]
    return Matroid(ground, bases, validate=False)


def _acyclic(roots: list, pairs) -> bool:
    """True iff the vertex-index pairs form a forest; the union-find starts
    from a copy of `roots` and stops at the first edge closing a cycle."""
    parent = roots.copy()
    for u, v in pairs:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return False
        parent[u] = v
    return True


def identify_vertices(g: Multigraph, classes) -> Multigraph:
    """Merge each class of the given vertex partition into one vertex.

    Edge labels survive; an edge inside a class becomes a loop.  Merged
    vertices are named by joining the sorted class members with '+'.
    """
    classes = [tuple(c) for c in classes]
    flat = [v for c in classes for v in c]
    if sorted(flat) != sorted(g.vertices) or len(set(flat)) != len(flat):
        raise DomainError("classes do not partition the vertex set")
    name = {}
    for c in classes:
        merged = "+".join(sorted(c)) if len(c) > 1 else c[0]
        for v in c:
            name[v] = merged
    return Multigraph(
        vertices=tuple(dict.fromkeys(name[v] for v in g.vertices)),
        edges=tuple((l, name[u], name[v]) for l, u, v in g.edges),
    )
