"""The top-down prefix passes against the 2^n scans they replaced.

valid_sets_with_activities (behind independent_spanning_sets,
tutte_activities and bijection_table) and compatible_family grow their
families one prefix at a time.  Here they are compared with a filter over
every subset: brute-force ranks on the corpus, the rank tables on the larger
matroids, and the per-subset activity pass (activities, in_family) for the
activities, their exponent counts and D.
"""

import random

import pytest

import oracle
from mptutte import (
    GroundSet,
    Multigraph,
    Perspective,
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
from mptutte.activities import activities, valid_sets_with_activities
from mptutte.compatible import in_family
from mptutte.setcore import MAX_ELEMENTS
from corpus import ladder


def wheel(spokes):
    """Wheel graph: spoke j is edge j + 1, rim edge j joins rim vertices j, j + 1."""
    edges = [(j + 1, "hub", f"r{j}") for j in range(spokes)]
    edges += [(spokes + j + 1, f"r{j}", f"r{(j + 1) % spokes}") for j in range(spokes)]
    vertices = ("hub",) + tuple(f"r{j}" for j in range(spokes))
    return Multigraph(vertices=vertices, edges=tuple(edges))


def packed(p, b):
    """The state the prefix pass must hold for B: B, Int << n, Ext << 2n and
    |Int| + 32|Ext| + 1024|B| << 3n, the masks from the per-subset pass."""
    n = p.ground.mask.bit_length()
    internal, external = activities(p.quotient, p.matroid, b)
    counts = internal.bit_count() + 32 * external.bit_count() + 1024 * b.bit_count()
    return b | internal << n | external << 2 * n | counts << 3 * n


def assert_passes_match_scans(p, valid, name):
    """`valid`: the valid sets, sorted by size then lex, from a subset filter."""
    assert p.independent_spanning_sets() == valid, name
    rows = valid_sets_with_activities(p.quotient, p.matroid)
    assert sorted(rows) == sorted(packed(p, b) for b in valid), name
    assert compatible_family(p) == [x for x in p.ground.subsets() if in_family(p, x)], name


def test_passes_match_scans_on_corpus(corpus):
    # each perspective as built and under one more seeded order
    rng = random.Random(20261018)
    for name, p in corpus:
        order = list(p.ground.order)
        rng.shuffle(order)
        for q in (p, p.reordered(order)):
            assert_passes_match_scans(q, oracle.valid_sets(q), (name, q.ground.order))


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
        assert valid_sets_with_activities(m, m) == [packed(p, b)]
        assert tutte_activities(p) == Poly.monomial(*term)
        assert [(row.b, row.monomial) for row in bijection_table(p)] == [(b, term)]
