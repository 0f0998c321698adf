import random

import pytest

from mptutte import (
    DomainError,
    GroundSet,
    Multigraph,
    cycle_matroid,
    identify_vertices,
    validate_perspective,
)
from mptutte.graphic import components
from corpus import _graph_circuit_family, fixture_matroids, ladder, slot_canonical_graphs

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


def test_cycle_matroid_ground_size_must_match():
    with pytest.raises(DomainError):
        cycle_matroid(TWO_TRIANGLES, GroundSet(4))


def test_rank_is_vertices_minus_components():
    rng = random.Random(11)
    for _ in range(60):
        g = random_graph(rng)
        m = cycle_matroid(g)
        comps = component_count(g)
        assert m.rank() == len(g.vertices) - comps


def test_identification_always_yields_perspective():
    rng = random.Random(23)
    trials = 0
    while trials < 50:
        g = random_graph(rng)
        if not g.edges:
            continue
        trials += 1
        m = cycle_matroid(g)
        merged = identify_vertices(g, random_partition(rng, g.vertices))
        mq = cycle_matroid(merged, m.ground)
        assert validate_perspective(m, mq)


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
