"""The top-down prefix passes against the 2^n scans they replaced.

activity_classes (behind independent_spanning_sets, tutte_activities and
bijection_table) and compatible_family grow their families one prefix at a
time.  Here they are compared with a filter over every subset: brute-force
ranks on the corpus, the rank tables on the larger matroids, and the
per-subset activity pass (activities, in_family) for the classes under both
keys and for D.  compatible_family is also held to the circuit-literal D on
pairs that are not perspectives, and to a memory bound per member of D.
"""

import random
import tracemalloc

import pytest

import oracle
from mptutte import (
    GroundSet,
    Multigraph,
    Perspective,
    PerspectiveError,
    Poly,
    bijection_table,
    compatible_family,
    cycle_matroid,
    free_matroid,
    identify_vertices,
    rank_zero_matroid,
    tutte_activities,
    uniform_matroid,
)
from mptutte.activities import activities, activity_classes
from mptutte.compatible import in_family
from mptutte.setcore import MAX_ELEMENTS
from corpus import ladder, random_circuit_matroids


def wheel(spokes):
    """Wheel graph: spoke j is edge j + 1, rim edge j joins rim vertices j, j + 1."""
    edges = [(j + 1, "hub", f"r{j}") for j in range(spokes)]
    edges += [(spokes + j + 1, f"r{j}", f"r{(j + 1) % spokes}") for j in range(spokes)]
    vertices = ("hub",) + tuple(f"r{j}" for j in range(spokes))
    return Multigraph(vertices=vertices, edges=tuple(edges))


def classes(p, valid, masks):
    """The classes the prefix pass must return for the valid sets `valid`:
    each B filed under (Int, Ext), or (|Int|, |Ext|), the masks from the
    per-subset pass; each class sorted."""
    out = {}
    for b in valid:
        internal, external = activities(p.quotient, p.matroid, b)
        key = (internal, external) if masks else (internal.bit_count(), external.bit_count())
        out.setdefault(key, []).append(b)
    return {key: sorted(bs) for key, bs in out.items()}


def assert_passes_match_scans(p, valid, name):
    """`valid`: the valid sets, sorted by size then lex, from a subset filter."""
    assert p.independent_spanning_sets() == valid, name
    for masks in (True, False):
        got, want = activity_classes(p.quotient, p.matroid, masks), classes(p, valid, masks)
        assert len(got) == len(want), name  # no class listed twice
        assert {(internal, external): sorted(bs) for internal, external, bs in got} == want, name
    assert sorted(compatible_family(p)) == [x for x in p.ground.subsets() if in_family(p, x)], name


def test_passes_match_scans_on_corpus(corpus):
    # each perspective as built and under one more seeded order
    rng = random.Random(20261018)
    for name, p in corpus:
        order = list(p.ground.order)
        rng.shuffle(order)
        for q in (p, p.reordered(order)):
            assert_passes_match_scans(q, oracle.valid_sets(q), (name, q.ground.order))


def test_family_is_circuit_literal_on_pairs_that_are_not_perspectives(small_matroids):
    # pairs built without validation: where M' is no quotient of M a prefix
    # can find both steps barred, and the pass must still return exactly the
    # X compatible with (M')* whose complement is compatible with M
    perspectives = others = 0
    for group in (small_matroids, random_circuit_matroids(4, 40, 11), random_circuit_matroids(5, 40, 12)):
        for m in group:
            for q in group:
                if m.ground != q.ground:
                    continue
                p = Perspective.__new__(Perspective)
                p.matroid, p.quotient = m, q
                assert sorted(compatible_family(p)) == oracle.compatible_family(m, q), (m, q)
                try:
                    oracle.check_perspective(m, q)
                    perspectives += 1
                except PerspectiveError:
                    others += 1
    assert others > perspectives > 0


def test_family_peak_per_member():
    # W8 over rank 0 in natural order: the prefixes are plain masks, about
    # 54 bytes per member of D with the list slots
    m = cycle_matroid(wheel(8))
    p = Perspective(m, rank_zero_matroid(m.ground))
    tracemalloc.start()
    try:
        family = compatible_family(p)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(family) == 18462
    assert peak < 100 * len(family), peak / len(family)


def ladder16_identified():
    g = ladder(16)
    m = cycle_matroid(g)
    rest = [v for v in g.vertices if v not in ("v0", "v3")]
    return Perspective(m, cycle_matroid(identify_vertices(g, [["v0", "v3"]] + [[v] for v in rest]),
                                        m.ground))


@pytest.mark.parametrize("which", ["ladder-16-identified", "uniform-4-over-3-12", "wheel-6-to-rank0"])
def test_passes_match_scans_beyond_the_corpus(which):
    if which == "ladder-16-identified":
        p = ladder16_identified()
    elif which == "uniform-4-over-3-12":
        ground = GroundSet(12)
        p = Perspective(uniform_matroid(4, ground), uniform_matroid(3, ground))
    else:
        m = cycle_matroid(wheel(6))
        p = Perspective(m, rank_zero_matroid(m.ground))
    rng = random.Random(which)
    for _ in range(3):
        q = p.reordered(rng.sample(p.ground.order, p.ground.size))
        m, mq = q.matroid, q.quotient
        valid = [s for s in q.ground.subsets() if m.is_independent(s) and mq.is_spanning(s)]
        valid.sort(key=q.ground.size_lex_key)
        assert len(valid) > 300
        assert_passes_match_scans(q, valid, (which, q.ground.order))


def test_packed_counts_reach_the_size_limit():
    # (Free, Free): the one valid set E is all internally active; (U0, U0):
    # the one valid set {} leaves every element externally active
    ground = GroundSet(MAX_ELEMENTS)
    for m, b, term in ((free_matroid(ground), ground.mask, (MAX_ELEMENTS, 0, 0)),
                       (rank_zero_matroid(ground), 0, (0, MAX_ELEMENTS, 0))):
        p = Perspective(m, m)
        # |Int| = 24 stays inside the 5-bit field of the counts key
        assert activity_classes(m, m, False) == [(term[0], term[1], [b])]
        assert activity_classes(m, m, True) == [(b, ground.mask ^ b, [b])]
        assert tutte_activities(p) == Poly.monomial(*term)
        assert [(row.b, row.monomial) for row in bijection_table(p)] == [(b, term)]
