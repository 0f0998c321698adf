import random

import oracle
from mptutte import (
    GroundSet,
    Perspective,
    compatible_family,
    free_matroid,
    is_compatible,
    rank_zero_matroid,
    uniform_matroid,
)
from corpus import fixture_matroids, fixture_perspective

# the thirteen compatible sets of the two-triangle pair, brute-forced independently
FIXTURE_FAMILY = [
    set(), {5}, {3}, {3, 5}, {3, 4, 5}, {1}, {1, 5}, {1, 3}, {1, 3, 5},
    {1, 3, 4, 5}, {1, 2, 3}, {1, 2, 3, 5}, {1, 2, 3, 4, 5},
]


def test_is_compatible_examples():
    m, _ = fixture_matroids()
    e = m.ground
    assert is_compatible(m, e.subset({4, 5}))
    assert not is_compatible(m, e.subset({1, 4}))
    free = free_matroid(GroundSet(3))
    for x in free.ground.subsets():
        assert is_compatible(free, x)


def test_fixture_family_matches_table():
    p = fixture_perspective()
    e = p.ground
    family = compatible_family(p)
    assert sorted(family) == sorted(e.subset(s) for s in FIXTURE_FAMILY)
    assert e.subset({1, 2, 3}) in family


def test_family_of_free_pair():
    # (free*)-circuits are the singletons, so only the empty set qualifies;
    # matches the lone valid B = E with f(E) = empty
    e = GroundSet(2)
    free = free_matroid(e)
    assert compatible_family(Perspective(free, free)) == [0]
    assert len(free.bases) == 1


def single_family(m):
    """D(M, <): the compatible family of the perspective (M, M)."""
    return compatible_family(Perspective(m, m))


def test_single_family_small_cases():
    # brute-forced by hand over all subsets; cardinality always #bases
    e2 = GroundSet(2)
    u12 = uniform_matroid(1, e2)
    assert sorted(single_family(u12)) == [0, e2.mask]
    assert len(single_family(u12)) == len(u12.bases)

    e1 = GroundSet(1)
    assert single_family(free_matroid(e1)) == [0]
    assert single_family(rank_zero_matroid(e1)) == [1]


def test_single_family_equals_identity_perspective(small_matroids):
    # Kochol's D(M, <) straight from its definition: X compatible with M*
    # and E \ X compatible with M, by the oracle's circuit scans
    for m in small_matroids[::2]:
        full = m.ground.mask
        literal = [x for x in m.ground.subsets()
                   if oracle.is_compatible(m.dual(), x) and oracle.is_compatible(m, full ^ x)]
        assert sorted(single_family(m)) == literal


def test_family_size_equals_basis_count(small_matroids):
    for m in small_matroids:
        assert len(single_family(m)) == len(m.bases)


def test_duality_swap(corpus):
    for name, p in corpus[::17]:
        full = p.ground.mask
        fam = set(compatible_family(p))
        dual_fam = set(compatible_family(p.dual()))
        assert fam == {full ^ x for x in dual_fam}, name


def test_family_comes_in_lex_order(corpus):
    # each corpus perspective as built, under a seeded order, and restricted
    # to a seeded subset (a gapped ground) under a seeded order: D is the
    # circuit-literal family in lex order
    rng = random.Random(31)
    gapped = 0
    for name, p in corpus:
        x = rng.randrange(p.ground.mask + 1) & p.ground.mask
        minor = Perspective(p.matroid.restrict(x), p.quotient.restrict(x))
        gapped += minor.ground.mask != (1 << minor.ground.size) - 1
        for q in (p, p.reordered(rng.sample(p.ground.order, p.ground.size)),
                  minor.reordered(rng.sample(minor.ground.order, minor.ground.size))):
            expected = oracle.lex_sorted(q.ground, oracle.compatible_family(q.matroid, q.quotient))
            assert compatible_family(q) == expected, (name, q.ground.order)
    assert gapped > 100
