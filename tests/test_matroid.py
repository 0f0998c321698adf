import itertools

import pytest

from mptutte import (
    AxiomError,
    DomainError,
    GroundSet,
    Matroid,
    bit,
    free_matroid,
    rank_zero_matroid,
    uniform_matroid,
)
from corpus import fixture_matroids


def brute_circuits(m):
    """Independent oracle: minimal dependent sets by direct enumeration."""
    ground = m.ground
    labels = ground.labels(ground.mask)
    circs = []
    for k in range(1, len(labels) + 1):
        for combo in itertools.combinations(labels, k):
            x = sum(bit(e) for e in combo)
            if any(c & ~x == 0 for c in circs):
                continue
            if not m.is_independent(x):
                circs.append(x)
    return sorted(circs)


def brute_min_basis(m):
    """The basis whose members' order positions, sorted, come first."""
    return min(m.bases, key=lambda b: sorted(m.ground.order.index(e) for e in m.ground.labels(b)))


@pytest.fixture(scope="module")
def pair():
    return fixture_matroids()


def test_from_bases_uniform():
    e = GroundSet(2)
    m = Matroid.from_bases(e, [e.subset({1}), e.subset({2})])
    assert m == uniform_matroid(1, e)
    assert m.rank() == 1


def test_from_bases_fixture_m(pair):
    m, _ = pair
    e = m.ground
    all3 = [sum(bit(x) for x in combo) for combo in itertools.combinations(range(1, 6), 3)]
    excluded = {e.subset({1, 2, 3}), e.subset({3, 4, 5})}
    rebuilt = Matroid.from_bases(e, [b for b in all3 if b not in excluded])
    assert rebuilt == m


def test_from_bases_rank_zero_single_loop():
    e = GroundSet(1)
    m = Matroid.from_bases(e, [0])
    assert m.rank() == 0
    assert m.circuits == (e.subset({1}),)


def test_from_bases_rejects_unequal_sizes():
    e = GroundSet(3)
    with pytest.raises(AxiomError, match="cardinality"):
        Matroid.from_bases(e, [e.subset({1}), e.subset({1, 2})])


def test_from_bases_rejects_exchange_failure():
    e = GroundSet(4)
    with pytest.raises(AxiomError, match=r"exchange.*\{1,2\}.*\{3,4\}"):
        Matroid.from_bases(e, [e.subset({1, 2}), e.subset({3, 4})])


def test_from_bases_rejects_empty_family():
    with pytest.raises(AxiomError):
        Matroid.from_bases(GroundSet(2), [])


def test_from_circuits_fixture(pair):
    m, mp = pair
    assert m.rank() == 3
    assert mp.rank() == 2
    assert len(m.bases) == 8
    assert len(mp.bases) == 5


def test_from_circuits_free():
    e = GroundSet(3)
    m = Matroid.from_circuits(e, [])
    assert m.bases == (e.mask,)
    assert m == free_matroid(e)


def test_from_circuits_rejects_bad_families():
    e = GroundSet(5)
    with pytest.raises(AxiomError, match="antichain"):
        Matroid.from_circuits(e, [e.subset({1, 2}), e.subset({1, 2, 3})])
    with pytest.raises(AxiomError, match="elimination"):
        Matroid.from_circuits(e, [e.subset({3, 4, 5}), e.subset({2, 4, 5})])
    with pytest.raises(AxiomError, match="empty"):
        Matroid.from_circuits(e, [0])


def test_rank_examples(pair):
    m, mp = pair
    assert m.rank(m.ground.mask) == 3
    assert mp.rank() == 2
    assert m.rank(0) == 0


def test_is_independent(pair):
    m, _ = pair
    e = m.ground
    assert m.is_independent(e.subset({2, 3, 4}))
    assert not m.is_independent(e.subset({1, 2, 3}))
    assert m.is_independent(0)


def test_is_spanning(pair):
    _, mp = pair
    e = mp.ground
    assert mp.is_spanning(e.subset({2, 4}))
    assert not mp.is_spanning(e.subset({1}))
    assert mp.is_spanning(e.mask)


def test_dual(pair):
    m, mp = pair
    e = m.ground
    assert e.subset({4, 5}) in mp.dual().circuits
    assert set(mp.dual().circuits) == {
        e.subset({4, 5}), e.subset({2, 3, 4}), e.subset({2, 3, 5}),
    }
    assert free_matroid(GroundSet(3)).dual() == rank_zero_matroid(GroundSet(3))
    assert m.dual().dual() == m
    assert m.rank() + m.dual().rank() == e.size


def test_dual_involution_small_corpus(small_matroids):
    for m in small_matroids:
        d = Matroid(m.ground, m.dual().bases, validate=False)  # fresh, no cache
        assert d.dual() == m
        assert m.rank() + d.rank() == m.ground.size


def test_restrict(pair):
    m, _ = pair
    e = m.ground
    sub = m.restrict(e.subset({1, 2, 3}))
    assert sub.rank() == 2
    assert sub.circuits == (e.subset({1, 2, 3}),)
    assert m.restrict(e.mask) == m
    empty = m.restrict(0)
    assert empty.ground.size == 0 and empty.rank() == 0


def test_restrict_independence_matches_parent(pair):
    m, mp = pair
    e = m.ground
    for big in (m, mp):
        for x in e.subsets():
            sub = big.restrict(x)
            full = sub.ground.mask
            t = 0
            while True:
                assert sub.is_independent(t) == big.is_independent(t)
                if t == full:
                    break
                t = (t - full) & full


def test_contract(pair):
    m, mp = pair
    e = m.ground
    q = mp.contract(e.subset({1, 2, 3}))
    assert q.ground.labels(q.ground.mask) == (4, 5)
    assert q.rank() == 1
    assert q.circuits == (e.subset({4, 5}),)
    assert m.contract(0) == m
    assert m.contract(e.mask).ground.size == 0


def test_contract_rank_formula(pair):
    m, mp = pair
    e = m.ground
    for big in (m, mp):
        for x in e.subsets():
            q = big.contract(x)
            rx = big.rank(x)
            full = q.ground.mask
            t = 0
            while True:
                assert q.rank(t) == big.rank(t | x) - rx
                if t == full:
                    break
                t = (t - full) & full


def test_min_basis_examples(pair):
    m, mp = pair
    e = m.ground
    assert mp.contract(e.subset({1, 2, 3})).min_basis() == e.subset({4})
    assert m.restrict(e.subset({1, 2, 3})).dual().min_basis() == e.subset({1})
    assert free_matroid(GroundSet(3)).min_basis() == GroundSet(3).mask


def test_min_basis_greedy_equals_brute_force(pair, small_matroids):
    m, mp = pair
    rev = GroundSet(5, order=(5, 4, 3, 2, 1))
    pool = [m, mp, m.dual(), mp.dual(),
            Matroid(rev, m.bases, validate=False), Matroid(rev, mp.bases, validate=False)]
    pool += small_matroids
    for matroid in pool:
        assert matroid.min_basis() == brute_min_basis(matroid)


def test_circuits_against_brute_force(pair, small_matroids):
    m, mp = pair
    for matroid in [m, mp, m.dual(), mp.dual()] + small_matroids:
        derived = Matroid(matroid.ground, matroid.bases, validate=False)
        assert sorted(derived.circuits) == brute_circuits(matroid)


def test_rank_submodular(pair, small_matroids):
    m, mp = pair
    for matroid in [m, mp] + small_matroids[:40]:
        e = matroid.ground
        subs = list(e.subsets())
        for x in subs:
            for y in subs:
                assert matroid.rank(x) + matroid.rank(y) >= matroid.rank(x | y) + matroid.rank(x & y)


def test_circuit_basis_round_trip(pair, small_matroids):
    m, mp = pair
    for matroid in [m, mp] + small_matroids:
        again = Matroid.from_circuits(matroid.ground, matroid.circuits)
        assert again == matroid
        rebuilt = Matroid.from_bases(matroid.ground, matroid.bases)
        assert rebuilt.circuits == matroid.circuits


def test_foreign_elements_rejected(pair):
    m, _ = pair
    with pytest.raises(DomainError):
        m.rank(1 << 6)
    with pytest.raises(DomainError):
        Matroid.from_bases(GroundSet(2), [0b100])


def test_uniform_matroid_bounds():
    with pytest.raises(DomainError):
        uniform_matroid(3, GroundSet(2))


def test_empty_ground_set():
    e = GroundSet(0)
    m = Matroid.from_bases(e, [0])
    assert m.rank() == 0
    assert m.circuits == ()
    assert m.dual() == m


def test_repr_shows_the_first_four_bases():
    assert repr(uniform_matroid(1, GroundSet(2))) == "Matroid(rank 1 on {1,2}; bases {1}, {2})"
    assert repr(uniform_matroid(2, GroundSet(5))) == (
        "Matroid(rank 2 on {1,2,3,4,5}; bases {1,2}, {1,3}, {2,3}, {1,4}, ... (10 bases))")
