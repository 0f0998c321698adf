import random

import pytest

from mptutte import (
    DomainError,
    GroundSet,
    Matroid,
    Perspective,
    PerspectiveError,
    free_matroid,
    rank_zero_matroid,
    tutte_activities,
    tutte_m0_expansion,
    uniform_matroid,
    validate_perspective,
)
import oracle
from corpus import fixture_matroids, fixture_perspective


@pytest.fixture(scope="module")
def pair():
    return fixture_matroids()


def test_validate_examples(pair):
    m, mp = pair
    assert validate_perspective(m, mp)
    assert validate_perspective(m, m)
    e2 = GroundSet(2)
    assert not validate_perspective(uniform_matroid(1, e2), free_matroid(e2))


def test_validate_requires_common_ground(pair):
    m, _ = pair
    with pytest.raises(DomainError):
        validate_perspective(m, free_matroid(GroundSet(4)))
    with pytest.raises(DomainError):
        Perspective(m, free_matroid(GroundSet(5, order=(5, 4, 3, 2, 1))))


def test_constructor_rejects_invalid_pairs_naming_circuit():
    e = GroundSet(2)
    with pytest.raises(PerspectiveError, match=r"\{1,2\}"):
        Perspective(uniform_matroid(1, e), free_matroid(e))


def test_repr_shows_both_matroids():
    e = GroundSet(2)
    assert repr(Perspective(uniform_matroid(1, e), rank_zero_matroid(e))) == (
        "Perspective(Matroid(rank 1 on {1,2}; bases {1}, {2}), Matroid(rank 0 on {1,2}; bases {}))")


def test_quotients_by_theorem_skip_the_rank_step_pass(corpus, monkeypatch):
    # every matroid has itself and its rank-0 matroid as quotients, and the
    # dual of a perspective is one, so none of these pairs needs the pass
    # over the rank tables
    def refuse(matroid, quotient):
        raise AssertionError("rank-step pass ran on a quotient by theorem")

    monkeypatch.setattr("mptutte.perspective._rank_steps_dominate", refuse)
    m, mp = fixture_matroids()
    gapped = m.restrict(m.ground.subset({2, 4, 5}))
    for _, p in corpus + [("gapped", Perspective(gapped, gapped))]:
        p.dual()
        for x in (p.matroid, p.quotient):
            Perspective(x, x)
            Perspective(x, rank_zero_matroid(x.ground))
    tutte_m0_expansion(m)
    with pytest.raises(AssertionError, match="rank-step pass"):
        Perspective(m, mp)


def test_reversed_pair_is_not_a_perspective(pair):
    m, mp = pair
    with pytest.raises(PerspectiveError):
        Perspective(mp, m)


def test_dual_perspective(pair):
    m, mp = pair
    p = Perspective(m, mp)
    d = p.dual()
    assert d.matroid == mp.dual()
    assert d.quotient == m.dual()
    assert d.dual() == p
    same = Perspective(m, m)
    assert same.dual() == Perspective(m.dual(), m.dual())


def test_rank_defect_examples(pair):
    p = fixture_perspective()
    e = p.ground
    assert p.rank_defect(e.subset({2, 4})) == 1
    assert p.rank_defect(e.subset({1, 2, 4})) == 0
    assert p.rank_defect(e.mask) == 0


def test_rank_defect_nonnegative_and_monotone(corpus):
    for name, p in corpus[::7]:
        e = p.ground
        diffs = {}
        for x in e.subsets():
            d = p.matroid.rank(x) - p.quotient.rank(x)
            diffs[x] = d
            assert p.rank_defect(x) >= 0, name
        for x in diffs:
            rest = e.mask & ~x
            while rest:
                b = rest & -rest
                rest ^= b
                assert diffs[x | b] >= diffs[x], name


def test_dual_of_corpus_perspectives_validates(corpus):
    for name, p in corpus[::13]:
        d = p.dual()
        assert validate_perspective(d.matroid, d.quotient), name


def test_independent_spanning_sets_fixture():
    p = fixture_perspective()
    e = p.ground
    sets = p.independent_spanning_sets()
    assert len(sets) == 13
    assert sets[0] == e.subset({2, 4})
    assert sets[-1] == e.subset({2, 4, 5})
    sizes = [s.bit_count() for s in sets]
    assert sizes == sorted(sizes)


def test_reordered_shares_tables_and_keeps_the_polynomial(corpus):
    for name, p in corpus:
        order = tuple(reversed(p.ground.order))
        q = p.reordered(order)
        assert q.ground.order == order, name
        assert q.matroid.ranks is p.matroid.ranks, name
        assert q.quotient.ranks is p.quotient.ranks, name
        for carried, m in ((q.matroid, p.matroid), (q.quotient, p.quotient)):
            assert carried.bases == m.bases, name
            assert carried.ranks == Matroid(q.ground, m.bases, validate=False).ranks, name
        assert tutte_activities(q) == tutte_activities(p), name


def test_reordered_pairs_are_perspectives_without_a_second_check(corpus):
    fixture = fixture_perspective()
    reorders = [(name, fixture, p.ground.order) for name, p in corpus if name.startswith("fixture-order")]
    assert len(reorders) == 10
    rng = random.Random(20261018)
    reorders += [(name, p, rng.sample(p.ground.order, p.ground.size)) for name, p in corpus]
    for name, p, order in reorders:
        q = p.reordered(order)
        oracle.check_perspective(q.matroid, q.quotient)
        assert q.matroid.ranks is p.matroid.ranks and q.quotient.ranks is p.quotient.ranks, name
        ground = GroundSet.from_order(order)
        fresh = Perspective(Matroid(ground, p.matroid.bases, validate=False),
                            Matroid(ground, p.quotient.bases, validate=False))
        assert tutte_activities(q) == tutte_activities(fresh), name


def test_reordered_rejects_orders_that_are_not_permutations():
    p = fixture_perspective()
    for order in ([1, 2, 3, 4], [1, 2, 3, 4, 4], [1, 2, 3, 4, 6], [1, 2, 3, 4, 5, 6], ["a"] * 5):
        with pytest.raises(DomainError, match="not a permutation of the ground set"):
            p.reordered(order)
    gapped = Perspective(*(m.restrict(m.ground.subset({2, 4, 5})) for m in fixture_matroids()))
    with pytest.raises(DomainError):
        gapped.reordered([1, 2, 3])
    assert gapped.reordered([5, 2, 4]).ground.order == (5, 2, 4)
