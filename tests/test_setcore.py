import random
from itertools import combinations

import pytest

import oracle
from mptutte import DomainError, GroundSet, Perspective, bit, uniform_matroid
from mptutte.setcore import submasks


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
    grounds += [GroundSet.from_order(rng.sample([2, 5, 7, 11, 12, 17, 20, 24], k)) for k in range(1, 9)]
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
    for m in range(1 << 10):
        assert list(submasks(m)) == [s for s in range(m + 1) if not s & ~m], m
    # the gapped grounds reach bit 24, so their submasks are the sums of
    # their members' bits, sorted, instead of a scan up to the mask
    rng = random.Random(20261018)
    grounds = [GroundSet.from_order(rng.sample([2, 5, 7, 11, 12, 17, 20, 24], k)) for k in range(1, 9)]
    for g in grounds:
        bits = [bit(e) for e in g.order]
        sums = sorted(sum(c) for k in range(len(bits) + 1) for c in combinations(bits, k))
        assert list(submasks(g.mask)) == sums, g
    for g in [*grounds, e, empty]:
        assert list(g.subsets()) == list(submasks(g.mask)), g


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
    with pytest.raises(DomainError, match=r"subset \{8\} contains"):
        e.check_subset(1 << 7)
    # labels past the size limit are still named
    with pytest.raises(DomainError, match=r"subset \{6,28\} contains"):
        e.check_subset(1 << 27 | 1 << 5 | 1)


def test_check_subset_refuses_a_negative_mask():
    # a negative int has infinitely many set bits, none of them a label
    e = GroundSet(3)
    for x in (-1, -2, -(1 << 30)):
        with pytest.raises(DomainError) as exc:
            e.check_subset(x)
        assert str(exc.value) == f"subset mask {x} is negative"
    with pytest.raises(DomainError, match="subset mask -1 is negative"):
        uniform_matroid(2, e).rank(-1)
    with pytest.raises(DomainError, match="subset mask -8 is negative"):
        e.complement(-8)


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
    named = GroundSet(3, order=(3, 1, 2), names=("a", "b", "c"))
    assert named.fmt(named.subset({1, 3})) == "{a,c}"
    assert GroundSet.from_order((3, 1), named.names).fmt(0b101) == "{a,c}"
    # an element outside the ground set has no name, so it prints as its label
    with pytest.raises(DomainError) as exc:
        named.check_subset(0b10001)
    assert str(exc.value) == "subset {5} contains elements outside the ground set {a,b,c}"
    with pytest.raises(DomainError, match="2 names for 3 elements"):
        GroundSet(3, names=("a", "b"))


def test_byte_tables_match_the_per_element_oracle():
    # random masks reaching all three bytes, on grounds whose tables differ in
    # size, names, order and gaps; a reordered perspective's ground comes after
    # the ground it reorders, so a table shared between orders would show
    rng = random.Random(20261018)
    letters = tuple("abcdefghijklmnopqrstuvwx")
    grounds = [GroundSet(0), GroundSet(24), GroundSet(24, names=letters),
               GroundSet(24, order=rng.sample(range(1, 25), 24), names=letters),
               GroundSet(7, order=(7, 1, 6, 2, 5, 3, 4), names=letters[:7])]
    grounds += [GroundSet.from_order(rng.sample(range(1, 25), k), names)
                for k in (1, 3, 9, 17, 24) for names in (letters, GroundSet(24).names)]
    m = uniform_matroid(2, GroundSet(17, names=letters[:17]))
    p = Perspective(m, m)
    grounds.append(p.ground)
    grounds += [p.reordered(rng.sample(range(1, 18), 17)).ground for _ in range(3)]
    for g in grounds:
        masks = [0, g.mask] + [rng.getrandbits(24) & g.mask for _ in range(2000)]
        for x in masks:
            assert g.fmt(x) == oracle.fmt(g, x), (g, x)
            assert g.size_lex_key(x) == oracle.size_lex_key(g, x), (g, x)
