import itertools
import random

import pytest

from mptutte import DomainError, GroundSet, bit


def masks_of_size(n, k):
    return [sum(bit(e) for e in combo) for combo in itertools.combinations(range(1, n + 1), k)]


def test_complement_examples():
    e = GroundSet(5)
    assert e.complement(e.subset({3, 4, 5})) == e.subset({1, 2})
    assert e.complement(0) == e.mask
    assert e.complement(e.mask) == 0


def test_complement_involution():
    e = GroundSet(5)
    for x in e.subsets():
        assert e.complement(e.complement(x)) == x


def test_min_element_examples():
    e = GroundSet(5)
    assert e.min_element(e.subset({3, 4, 5})) == 3
    assert e.min_element(e.subset({1, 2, 3})) == 1
    rev = GroundSet(5, order=(5, 4, 3, 2, 1))
    assert rev.min_element(rev.subset({4, 5})) == 5


def test_min_element_empty_rejected():
    with pytest.raises(DomainError):
        GroundSet(3).min_element(0)


def test_min_element_is_least_member():
    rng = random.Random(7)
    for order in [None, (5, 4, 3, 2, 1), tuple(rng.sample(range(1, 6), 5))]:
        e = GroundSet(5, order=order)
        pos = {lbl: i for i, lbl in enumerate(e.order)}
        for x in e.subsets():
            if not x:
                continue
            m = e.min_element(x)
            assert bit(m) & x
            assert all(pos[m] <= pos[lbl] for lbl in e.labels(x))


def test_lex_compare_examples():
    e = GroundSet(5)
    assert e.lex_compare(e.subset({1, 3}), e.subset({2, 3})) == -1
    assert e.lex_compare(e.subset({2, 4}), e.subset({2, 5})) == -1
    assert e.lex_compare(e.subset({1, 5}), e.subset({1, 5})) == 0


def test_lex_compare_rejects_unequal_sizes():
    e = GroundSet(5)
    with pytest.raises(DomainError):
        e.lex_compare(e.subset({1}), e.subset({1, 2}))


def test_lex_compare_matches_sorted_sequences():
    # against the defining description: compare <-sorted label sequences
    e = GroundSet(6, order=(3, 1, 4, 6, 2, 5))
    pos = {lbl: i for i, lbl in enumerate(e.order)}
    for k in (2, 3):
        for a in masks_of_size(6, k):
            for b in masks_of_size(6, k):
                seq_a = sorted(pos[l] for l in e.labels(a))
                seq_b = sorted(pos[l] for l in e.labels(b))
                expected = -1 if seq_a < seq_b else (0 if seq_a == seq_b else 1)
                assert e.lex_compare(a, b) == expected


def test_lex_is_total_order_on_equal_sizes():
    e = GroundSet(6)
    size3 = masks_of_size(6, 3)
    for a, b in itertools.product(size3, repeat=2):
        ab = e.lex_compare(a, b)
        assert ab == -e.lex_compare(b, a)
        assert (ab == 0) == (a == b)
    for a, b, c in itertools.product(size3, repeat=3):
        if e.lex_compare(a, b) <= 0 and e.lex_compare(b, c) <= 0:
            assert e.lex_compare(a, c) <= 0


def test_size_lex_key_sorting():
    e = GroundSet(5)
    ranked = sorted(e.subsets(), key=e.size_lex_key)
    assert ranked[0] == 0
    assert ranked[1] == e.subset({1})
    assert ranked[-1] == e.mask
    sizes = [x.bit_count() for x in ranked]
    assert sizes == sorted(sizes)


def test_size_lex_key_orders_like_sorted_positions():
    # the literal key: size, then the members' order positions, ascending
    def literal(g, x):
        positions = sorted(g.order.index(e) for e in g.labels(x))
        return (len(positions), positions)

    rng = random.Random(20261018)
    grounds = [GroundSet(n, order=rng.sample(range(1, n + 1), n)) for n in range(9) for _ in range(3)]
    grounds += [GroundSet(n) for n in range(9)]
    grounds += [GroundSet.from_order(rng.sample([2, 5, 7, 11, 12, 17, 26, 30], k)) for k in range(1, 9)]
    for g in grounds:
        subsets = list(g.subsets())
        rng.shuffle(subsets)
        assert sorted(subsets, key=g.size_lex_key) == sorted(subsets, key=lambda x: literal(g, x)), g
        keys = {g.size_lex_key(x) for x in subsets}
        assert len(keys) == len(subsets) and all(isinstance(k, int) for k in keys), g


def test_subsets_enumeration():
    e = GroundSet(4)
    subs = list(e.subsets())
    assert subs == list(range(16))
    empty = GroundSet(0)
    assert list(empty.subsets()) == [0]


def test_ground_set_validation():
    with pytest.raises(DomainError):
        GroundSet(31)
    with pytest.raises(DomainError):
        GroundSet(3, order=(1, 2))
    with pytest.raises(DomainError):
        GroundSet(3, order=(1, 2, 2))
    with pytest.raises(DomainError):
        GroundSet(-1)


def test_subset_rejects_foreign_elements():
    e = GroundSet(5)
    with pytest.raises(DomainError):
        e.subset({6})
    with pytest.raises(DomainError):
        e.subset({0})
    with pytest.raises(DomainError):
        e.check_subset(1 << 7)


def test_from_order_keeps_labels():
    sub = GroundSet.from_order((2, 5, 3))
    assert sub.mask == bit(2) | bit(3) | bit(5)
    assert sub.min_element(sub.subset({3, 5})) == 5
    assert sub.labels(sub.mask) == (2, 3, 5)
    with pytest.raises(DomainError):
        GroundSet.from_order((2, 2))


def test_fmt():
    e = GroundSet(5)
    assert e.fmt(e.subset({1, 3, 5})) == "{1,3,5}"
    assert e.fmt(0) == "{}"
