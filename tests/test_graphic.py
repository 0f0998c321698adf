import random
import tracemalloc
from collections import Counter

import pytest

from mptutte import (
    DomainError,
    GroundSet,
    Matroid,
    Multigraph,
    Perspective,
    cycle_matroid,
    identify_vertices,
    rank_zero_matroid,
    uniform_matroid,
)
from mptutte import matroid as matroid_module
from mptutte.graphic import _zero_sums, components
from corpus import _graph_circuit_family, fixture_matroids, ladder, slot_canonical_graphs
from oracle import check_perspective

TWO_TRIANGLES = Multigraph(
    vertices=("a", "b", "c", "d"),
    edges=((1, "a", "b"), (2, "b", "c"), (3, "c", "a"), (4, "c", "d"), (5, "d", "a")),
)


def circuit_sets(m):
    return sorted(sorted(m.ground.labels(c)) for c in m.circuits)


def test_triangle():
    g = Multigraph(vertices=("a", "b", "c"), edges=((1, "a", "b"), (2, "b", "c"), (3, "c", "a")))
    m = cycle_matroid(g)
    assert circuit_sets(m) == [[1, 2, 3]]
    assert m.rank() == 2


def test_two_triangles_is_the_fixture_matroid():
    m = cycle_matroid(TWO_TRIANGLES)
    assert circuit_sets(m) == [[1, 2, 3], [1, 2, 4, 5], [3, 4, 5]]
    assert m.rank() == 3
    assert m == fixture_matroids()[0]


def test_single_loop():
    g = Multigraph(vertices=("a",), edges=((1, "a", "a"),))
    m = cycle_matroid(g)
    assert circuit_sets(m) == [[1]]
    assert m.rank() == 0


def test_parallel_edges():
    g = Multigraph(vertices=("a", "b"), edges=((1, "a", "b"), (2, "a", "b")))
    assert circuit_sets(cycle_matroid(g)) == [[1, 2]]


def test_identify_reproduces_fixture_quotient():
    merged = identify_vertices(TWO_TRIANGLES, [("a", "b"), ("c",), ("d",)])
    mp = cycle_matroid(merged)
    assert circuit_sets(mp) == [[1], [2, 3], [2, 4, 5], [3, 4, 5]]
    assert mp.rank() == 2
    assert mp == fixture_matroids()[1]


def identify_v0_v3(g):
    return identify_vertices(g, [("v0", "v3")] + [(v,) for v in g.vertices if v not in ("v0", "v3")])


def test_forest_circuits_match_cycle_scan_on_small_graphs():
    # the corpus scan finds simple cycles by degrees and connectivity and
    # shares no code with the cycle-space builder
    seen = 0
    for m in range(6):
        for fam, g in slot_canonical_graphs(m).items():
            assert frozenset(cycle_matroid(g).circuits) == fam, g
            seen += 1
    assert seen == 238


def test_forest_circuits_match_cycle_scan_on_ladder_12():
    g = ladder(12)
    for graph in (g, identify_v0_v3(g)):
        assert frozenset(cycle_matroid(graph).circuits) == _graph_circuit_family(12, graph.edges)


def test_ladder_14_basis_counts():
    g = ladder(14)
    assert len(cycle_matroid(g).bases) == 377
    assert len(cycle_matroid(identify_v0_v3(g)).bases) == 335


def test_loop_parallel_pair_and_isolated_vertex():
    g = Multigraph(
        vertices=("a", "b", "c", "d"),
        edges=((1, "a", "a"), (2, "a", "b"), (3, "b", "a"), (4, "b", "c")),
    )
    m = cycle_matroid(g)
    assert m.rank() == len(g.vertices) - component_count(g) == 2
    assert [sorted(m.ground.labels(b)) for b in m.bases] == [[2, 4], [3, 4]]
    assert circuit_sets(m) == [[1], [2, 3]]
    assert frozenset(m.circuits) == _graph_circuit_family(4, g.edges)


def test_components_first_seen_order():
    assert components("abcde", [("c", "a"), ("e", "d"), ("d", "e")]) == (
        ("a", "c"), ("b",), ("d", "e"),
    )
    assert components(("x",), []) == (("x",),)
    assert components((), []) == ()


def test_identify_identity_partition():
    same = identify_vertices(TWO_TRIANGLES, [(v,) for v in TWO_TRIANGLES.vertices])
    assert same == TWO_TRIANGLES


def test_identify_everything_gives_rank_zero():
    merged = identify_vertices(TWO_TRIANGLES, [TWO_TRIANGLES.vertices])
    m = cycle_matroid(merged)
    assert m.rank() == 0
    assert len(m.circuits) == 5


def test_identify_names_each_class_by_a_member():
    # a vertex already named like a joined class must stay its own vertex
    g = Multigraph(vertices=("a", "b", "a+b", "c"),
                   edges=((1, "a", "b"), (2, "b", "a+b"), (3, "a+b", "c")))
    merged = identify_vertices(g, components(g.vertices, [("a", "b")]))
    assert merged.vertices == ("a", "a+b", "c")
    assert merged.edges == ((1, "a", "a"), (2, "a", "a+b"), (3, "a+b", "c"))
    assert circuit_sets(cycle_matroid(merged)) == [[1]]


def test_identify_rejects_non_partition():
    with pytest.raises(DomainError):
        identify_vertices(TWO_TRIANGLES, [("a", "b"), ("b", "c"), ("d",)])
    with pytest.raises(DomainError):
        identify_vertices(TWO_TRIANGLES, [("a", "b")])


def test_multigraph_validation():
    with pytest.raises(DomainError, match="labels"):
        Multigraph(vertices=("a", "b"), edges=((1, "a", "b"), (1, "a", "b")))
    with pytest.raises(DomainError, match="labels"):
        Multigraph(vertices=("a", "b"), edges=((2, "a", "b"),))
    with pytest.raises(DomainError, match="vertex"):
        Multigraph(vertices=("a",), edges=((1, "a", "z"),))
    with pytest.raises(DomainError, match="duplicate"):
        Multigraph(vertices=("a", "a"), edges=())
    g = Multigraph(vertices=["a", "b"], edges=[[1, "a", "b"]])
    assert g == Multigraph(vertices=("a", "b"), edges=((1, "a", "b"),))
    assert hash(g) == hash(Multigraph(vertices=("a", "b"), edges=((1, "a", "b"),)))
    assert (type(g.vertices), type(g.edges), type(g.edges[0])) == (tuple, tuple, tuple)
    with pytest.raises(AttributeError):
        g.edges = ()
    with pytest.raises(DomainError, match="endpoint"):
        g._replace(edges=((1, "a", "z"),))


def test_cycle_matroid_ground_size_must_match():
    with pytest.raises(DomainError):
        cycle_matroid(TWO_TRIANGLES, GroundSet(4))


def test_cycle_matroid_refuses_ground_labels_other_than_the_edge_labels():
    triangle = Multigraph(vertices=("a", "b", "c"), edges=((1, "a", "b"), (2, "b", "c"), (3, "c", "a")))
    with pytest.raises(DomainError, match="edge labels"):
        cycle_matroid(triangle, GroundSet.from_order((2, 3, 5)))
    assert cycle_matroid(triangle, GroundSet.from_order((3, 1, 2))).circuits == (0b111,)


def test_parallel_class_and_loops_only():
    parallel = Multigraph(vertices=("a", "b"), edges=tuple((l, "a", "b") for l in range(1, 21)))
    assert cycle_matroid(parallel) == uniform_matroid(1, GroundSet(20))
    loops = Multigraph(vertices=("a", "b"), edges=tuple((l, "b", "b") for l in range(1, 11)))
    assert cycle_matroid(loops) == rank_zero_matroid(GroundSet(10))


def multigraph(*bundles):
    """Edges labelled 1, 2, ... in order, `count` of them between u and v for
    each (count, u, v) bundle, u = v for loops."""
    ends = [(u, v) for count, u, v in bundles for _ in range(count)]
    vertices = tuple(dict.fromkeys(x for e in ends for x in e))
    return Multigraph(vertices=vertices, edges=tuple((l, u, v) for l, (u, v) in enumerate(ends, 1)))


# (nullity, lane width in bytes, graph): the additive sweep counts up to
# 2^nullity - 1 in each lane.  The disconnected graphs have one more nullity
# than the connected bound m - |V| + 1 says, so a width taken from that
# bound would be one byte plane short at 9 and at 17.  A lone vertex with
# only loops has no vertex row at all: its width comes from the flags alone.
LANE_WIDTH_CASES = [
    (8, 1, multigraph((3, "a", "b"), (3, "b", "c"), (3, "c", "a"), (1, "a", "a"))),
    (9, 2, multigraph((10, "a", "b"), (1, "c", "d"))),
    (16, 2, multigraph((17, "a", "b"), (1, "c", "d"))),
    (17, 4, multigraph((18, "a", "b"), (1, "c", "d"))),
    (9, 2, multigraph((9, "a", "a"))),
    (17, 4, multigraph((17, "a", "a"))),
]


@pytest.mark.parametrize("nullity, width, g", LANE_WIDTH_CASES,
                         ids=[f"{n}-loops" if len(g.vertices) == 1 else str(n) for n, _, g in LANE_WIDTH_CASES])
def test_counted_ranks_at_the_lane_width_boundaries(monkeypatch, nullity, width, g):
    assert len(g.edges) - len(g.vertices) + component_count(g) == nullity
    widths, sweep = [], matroid_module.lane_sweep

    def spy(*args, **kwargs):
        widths.append(kwargs.get("width", 1))
        return sweep(*args, **kwargs)

    monkeypatch.setattr(matroid_module, "lane_sweep", spy)
    m = cycle_matroid(g)
    assert widths == [width]
    assert m.ranks == Matroid._from_dependent(m.ground, _zero_sums(g)).ranks
    # r(S) = |V| - #components of (V, S), where S's components depend only on
    # which of the few distinct vertex pairs S touches
    pairs = sorted({(u, v) for _, u, v in g.edges})
    touched = [0]
    for _, u, v in sorted(g.edges):
        touched += [t | 1 << pairs.index((u, v)) for t in touched]
    rank = {t: len(g.vertices) - component_count(Multigraph(g.vertices, [
        (l, u, v) for l, (u, v) in enumerate((p for i, p in enumerate(pairs) if t >> i & 1), 1)]))
        for t in set(touched)}
    assert m.ranks == bytes(rank[t] for t in touched)


def test_two_plane_sums_peak_and_block_size(monkeypatch):
    # ladder-18 has 11 vertices, so its 10 vertex rows take two byte planes;
    # the second is ANDed into the first plane's flags in place, so the build
    # holds no more than the flags and one plane's sums at once
    g = ladder(18)
    tracemalloc.start()
    try:
        flags = _zero_sums(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.5 * 2 ** 18, peak / 2 ** 18
    assert flags.count(1) == 2 ** (18 - 10) - 1 and flags[0] == 0
    for block in (4, 1 << 20):  # many blocks, and one block larger than the table
        monkeypatch.setattr(matroid_module, "_BLOCK", block)
        assert _zero_sums(g) == flags


def test_rank_is_vertices_minus_components():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        m = cycle_matroid(g)
        comps = component_count(g)
        assert m.rank() == len(g.vertices) - comps


def test_identification_always_yields_perspective():
    # multigraphs with loops and parallel edges on up to 12 vertices: from 10
    # on, the cycle-space builder sums the incidence columns in two byte planes
    rng = random.Random(23)
    seen = Counter()
    while seen["trials"] < 60:
        g = random_graph(rng, max_vertices=12, max_edges=14)
        if not g.edges:
            continue
        m = cycle_matroid(g)
        merged = identify_vertices(g, random_partition(rng, g.vertices))
        mq = cycle_matroid(merged, m.ground)
        Perspective(m, mq)
        check_perspective(m, mq)
        ends = [frozenset((u, v)) for _, u, v in g.edges]
        seen.update(trials=1, loops=any(len(e) == 1 for e in ends), parallel=len(set(ends)) < len(ends),
                    two_planes=len(g.vertices) > 9, checked=bool(mq.rank() and mq.ranks != m.ranks))
    assert min(seen[k] for k in ("loops", "parallel", "two_planes", "checked")) >= 5, seen


def random_graph(rng, max_vertices=5, max_edges=7):
    nv = rng.randint(1, max_vertices)
    vertices = tuple(f"v{i}" for i in range(nv))
    ne = rng.randint(0, max_edges)
    edges = tuple(
        (i + 1, rng.choice(vertices), rng.choice(vertices)) for i in range(ne)
    )
    return Multigraph(vertices=vertices, edges=edges)


def random_partition(rng, items):
    buckets = []
    for item in items:
        i = rng.randint(0, len(buckets))
        if i == len(buckets):
            buckets.append([item])
        else:
            buckets[i].append(item)
    return buckets


def component_count(g):
    parent = {v: v for v in g.vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for _, u, v in g.edges:
        parent[find(u)] = find(v)
    return len({find(v) for v in g.vertices})
