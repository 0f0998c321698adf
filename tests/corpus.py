"""Perspective corpus shared by the property and acceptance tests.

Four families, built once per session (see the conftest fixtures):

  a. (M, M) for every matroid on <= 3 elements, seeded-random circuit-system
     matroids on 4 and 5 elements, uniform matroids, and every labeled
     graphic matroid with <= 5 edges,
  b. graphic pairs (cycle matroid, cycle matroid after a random vertex
     identification),
  c. (M, rank-0 quotient) for every matroid of family a,
  d. the two-triangle fixture under ten seeded random element orders.

Everything is deterministic: fixed seeds, sorted iteration, no wall-clock
dependence.
"""

import functools
import itertools
import random

from mptutte import (
    GroundSet,
    Matroid,
    Multigraph,
    Perspective,
    cycle_matroid,
    identify_vertices,
    rank_zero_matroid,
    uniform_matroid,
)
from mptutte.errors import AxiomError

FIXTURE_M_CIRCUITS = [{1, 2, 3}, {3, 4, 5}, {1, 2, 4, 5}]
FIXTURE_Q_CIRCUITS = [{1}, {2, 3}, {3, 4, 5}, {2, 4, 5}]


def fixture_matroids(order=None):
    ground = GroundSet(5, order=order)
    m = Matroid.from_circuits(ground, [ground.subset(c) for c in FIXTURE_M_CIRCUITS])
    mp = Matroid.from_circuits(ground, [ground.subset(c) for c in FIXTURE_Q_CIRCUITS])
    return m, mp


def fixture_perspective(order=None) -> Perspective:
    return Perspective(*fixture_matroids(order))


def all_matroids_up_to(n_max=3):
    """Every matroid on 0..n_max elements, by filtering circuit families."""
    out = []
    for n in range(n_max + 1):
        ground = GroundSet(n)
        nonempty = list(range(1, 1 << n))
        for r in range(len(nonempty) + 1):
            for fam in itertools.combinations(nonempty, r):
                if any(a != b and a & ~b == 0 for a in fam for b in fam):
                    continue
                try:
                    out.append(Matroid.from_circuits(ground, fam))
                except AxiomError:
                    continue
    return out


def random_circuit_matroids(n, trials, seed):
    """Matroids accepted from seeded random circuit systems on n elements."""
    rng = random.Random(seed)
    ground = GroundSet(n)
    found = {}
    for _ in range(trials):
        fam = set()
        for _ in range(rng.randint(1, 4)):
            size = rng.randint(1, n)
            fam.add(ground.subset(rng.sample(range(1, n + 1), size)))
        minimal = {c for c in fam if not any(d != c and d & ~c == 0 for d in fam)}
        try:
            m = Matroid.from_circuits(ground, minimal)
        except AxiomError:
            continue
        found.setdefault(frozenset(m.bases), m)
    return list(found.values())


# -- graphic enumeration -----------------------------------------------------

def _vertex_names(k):
    return [f"v{i}" for i in range(k)]


@functools.cache
def slot_canonical_graphs(m):
    """Multigraphs with m edges on m+1 vertices, one per distinct labeled
    cycle matroid under the sorted-slot label assignment.  Cached: the corpus
    and the graphic tests share one enumeration."""
    names = _vertex_names(m + 1)
    slots = [(u, v) for i, u in enumerate(names) for v in names[i:]]
    seen = {}
    for combo in itertools.combinations_with_replacement(range(len(slots)), m):
        edges = tuple((i + 1, *slots[s]) for i, s in enumerate(combo))
        fam = _graph_circuit_family(m, edges)
        if fam not in seen:
            used = tuple(dict.fromkeys(x for _, u, v in edges for x in (u, v)))
            seen[fam] = Multigraph(vertices=used or (names[0],), edges=edges)
    return seen


def _graph_circuit_family(m, edges):
    fam = []
    for mask in range(1, 1 << m):
        deg = {}
        for j in range(m):
            if mask >> j & 1:
                _, u, v = edges[j]
                deg[u] = deg.get(u, 0) + 1
                deg[v] = deg.get(v, 0) + 1
        if any(d != 2 for d in deg.values()):
            continue
        parent = {x: x for x in deg}

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for j in range(m):
            if mask >> j & 1:
                _, u, v = edges[j]
                if u != v:
                    parent[find(u)] = find(v)
        if len({find(x) for x in parent}) == 1:
            fam.append(mask)
    return frozenset(fam)


def ladder(k):
    """Triangle strip with k edges: edge i joins v[(i-1)//2] and the next or
    second-next vertex."""
    edges = []
    for i in range(1, k + 1):
        a = (i - 1) // 2
        edges.append((i, f"v{a}", f"v{a + 1 + (i - 1) % 2}"))
    vertices = tuple(dict.fromkeys(v for _, u, w in edges for v in (u, w)))
    return Multigraph(vertices=vertices, edges=tuple(edges))


def _relabel_family(fam, perm, m):
    out = set()
    for mask in fam:
        nm = 0
        for j in range(m):
            if mask >> j & 1:
                nm |= 1 << (perm[j] - 1)
        out.add(nm)
    return frozenset(out)


def all_graphic_matroids(max_edges=5):
    """Every labeled graphic matroid with <= max_edges elements, via the
    slot-canonical enumeration closed under edge-label permutations."""
    out = []
    for m in range(max_edges + 1):
        ground = GroundSet(m)
        families = set(slot_canonical_graphs(m))
        closed = set(families)
        for fam in families:
            for perm in itertools.permutations(range(1, m + 1)):
                closed.add(_relabel_family(fam, perm, m))
        for fam in sorted(closed, key=sorted):
            out.append(Matroid.from_circuits(ground, fam, validate=False))
    return out


def graphic_pairs(seed, per_graph=2, min_edges=2, max_edges=5):
    """Perspectives from random vertex identifications of the canonical graphs."""
    rng = random.Random(seed)
    pairs = []
    for m in range(min_edges, max_edges + 1):
        for fam, graph in sorted(slot_canonical_graphs(m).items(), key=lambda kv: sorted(kv[0])):
            base = cycle_matroid(graph)
            for _ in range(per_graph):
                classes = _random_partition(rng, graph.vertices)
                merged = cycle_matroid(identify_vertices(graph, classes), base.ground)
                pairs.append(Perspective(base, merged))
    return pairs


def _random_partition(rng, items):
    buckets = []
    for item in items:
        i = rng.randint(0, len(buckets))
        if i == len(buckets):
            buckets.append([item])
        else:
            buckets[i].append(item)
    return buckets


def build_corpus(seed=20260809):
    """The full acceptance corpus: list of (name, Perspective)."""
    matroids = []
    matroids.extend(("small", m) for m in all_matroids_up_to(3))
    for n, trials in ((4, 250), (5, 350)):
        matroids.extend(
            (f"random-n{n}", m) for m in random_circuit_matroids(n, trials, seed + n)
        )
    for n in range(6):
        ground = GroundSet(n)
        matroids.extend((f"uniform-{k}-{n}", uniform_matroid(k, ground)) for k in range(n + 1))
    matroids.extend(("graphic", m) for m in all_graphic_matroids(5))

    # dedupe identical matroids picked up by several generators
    distinct = {}
    for name, m in matroids:
        distinct.setdefault((m.ground.order, frozenset(m.bases)), (name, m))
    matroids = list(distinct.values())

    corpus = []
    corpus.extend((f"identity({name})", Perspective(m, m)) for name, m in matroids)
    corpus.extend(
        (f"to-rank0({name})", Perspective(m, rank_zero_matroid(m.ground)))
        for name, m in matroids
    )
    corpus.extend(
        (f"graphic-pair-{i}", p) for i, p in enumerate(graphic_pairs(seed))
    )
    corpus.append(("fixture", fixture_perspective()))
    rng = random.Random(seed)
    for i in range(10):
        order = rng.sample(range(1, 6), 5)
        corpus.append((f"fixture-order-{i}", fixture_perspective(order)))
    return corpus


def corpus_matroids(corpus):
    """The distinct single matroids appearing in a corpus (for the bivariate
    specialization criteria)."""
    distinct = {}
    for name, p in corpus:
        for m in (p.matroid, p.quotient):
            distinct.setdefault((m.ground.order, frozenset(m.bases)), (name, m))
    return list(distinct.values())
