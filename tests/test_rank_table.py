"""The rank table and every lookup built on it, against the oracle module.

The oracle scans circuit families derived from the bases and never touches
the rank table, so agreement here checks the table, the activity pass, the
compatibility test, the compatible family, the perspective check and the
circuit-built tables independently.
"""

import itertools
import random

import pytest

import oracle
from mptutte import (
    AxiomError,
    DomainError,
    GroundSet,
    Matroid,
    Perspective,
    PerspectiveError,
    backward,
    compatible_family,
    cycle_matroid,
    externally_active,
    identify_vertices,
    internally_active,
    is_compatible,
    uniform_matroid,
)
from corpus import all_matroids_up_to, ladder, random_circuit_matroids


def construction_corpus():
    """Same-size groups of matroids: every matroid on <= 3 elements and the
    seeded random circuit systems on 4 and 5 elements, each group followed by
    the restrictions that drop element 1, whose ground sets have a gap."""
    groups = {}
    for m in all_matroids_up_to(3):
        groups.setdefault(m.size, []).append(m)
    groups[4] = random_circuit_matroids(4, 250, 20260813)
    groups[5] = random_circuit_matroids(5, 350, 20260814)
    gapped = {n: [m.restrict(m.ground.mask & ~1) for m in ms] for n, ms in groups.items() if n}
    return list(groups.values()) + list(gapped.values())


def error_text(error, check, *args):
    """The message of the `error` that check(*args) raises, or None."""
    try:
        check(*args)
    except error as e:
        return str(e)
    return None


def test_ranks_match_brute_rank_on_corpus(corpus):
    for name, p in corpus:
        for m in (p.matroid, p.quotient):
            for x in p.ground.subsets():
                assert m.rank(x) == oracle.brute_rank(m, x), (name, x)


def test_activities_match_oracle_on_corpus(corpus):
    for name, p in corpus:
        for m in (p.matroid, p.quotient):
            for x in p.ground.subsets():
                assert externally_active(m, x) == oracle.externally_active(m, x), (name, x)
                assert internally_active(m, x) == oracle.internally_active(m, x), (name, x)


def test_compatibility_matches_oracle_on_corpus(corpus):
    for name, p in corpus:
        m, q = p.matroid, p.quotient
        for matroid in (m, q, q.dual()):
            for x in p.ground.subsets():
                assert is_compatible(matroid, x) == oracle.is_compatible(matroid, x), (name, x)
        full = p.ground.mask
        dual_q = q.dual()
        expected = [
            x for x in p.ground.subsets()
            if oracle.is_compatible(dual_q, x) and oracle.is_compatible(m, full ^ x)
        ]
        assert compatible_family(p) == expected, name
        for x in expected:
            via_minors = (x & ~m.restrict(x).dual().min_basis()) | q.contract(x).min_basis()
            assert backward(p, x) == via_minors, (name, x)


@pytest.mark.parametrize("which", ["uniform-4-12", "ladder-12", "ladder-12-identified",
                                   "ladder-12-contracted"])
def test_full_table_matches_brute_rank_beyond_the_corpus(which):
    if which == "uniform-4-12":
        m = uniform_matroid(4, GroundSet(12))
    else:
        g = ladder(12)
        m = cycle_matroid(g)
        if which == "ladder-12-identified":
            rest = [v for v in g.vertices if v not in ("v0", "v3")]
            m = cycle_matroid(identify_vertices(g, [["v0", "v3"]] + [[v] for v in rest]),
                              m.ground)
        elif which == "ladder-12-contracted":
            # a minor keeps its labels, so its ground mask has gaps
            m = m.contract(m.ground.subset({2, 7}))
    assert m.ground.size >= 10
    for x in m.ground.subsets():
        assert m.ranks[x] == oracle.brute_rank(m, x), x


def test_oversized_rank_table_is_refused():
    # every GroundSet fits a rank table, so no matroid is ever too large
    with pytest.raises(DomainError, match=r"25 elements; the limit is 24$"):
        GroundSet(25)
    with pytest.raises(DomainError, match=r"label 25 outside 1\.\.24$"):
        GroundSet.from_order([25])


def test_perspective_check_matches_circuit_union_oracle():
    # every ordered pair within a group, rebuilt from the bases so that the
    # circuits and the tables start cold
    seen = {True: 0, False: 0}
    for group in construction_corpus():
        for m, q in itertools.product(group, repeat=2):
            fresh = [Matroid(x.ground, x.bases, validate=False) for x in (m, q)]
            want = error_text(PerspectiveError, oracle.check_perspective, m, q)
            assert error_text(PerspectiveError, Perspective, *fresh) == want, (m, q)
            seen[want is None] += 1
    assert min(seen.values()) > 1000, seen


def test_from_circuits_matches_base_scan_oracle():
    for group in construction_corpus():
        for m in group:
            built = Matroid.from_circuits(m.ground, m.circuits)
            assert list(built.bases) == oracle.bases_from_circuits(m.ground, m.circuits), m
            assert built.ranks == Matroid(m.ground, m.bases, validate=False).ranks, m


def circuit_families():
    """(ground, family): every family of subsets of a ground set of <= 3
    elements, and of {1, 3, 4, 6} (a gap in the masks), seeded random families
    on 4 to 6 elements and their minimal members, and the circuits of the
    construction corpus."""
    gapped = GroundSet.from_order([1, 3, 4, 6])
    for ground in [GroundSet(n) for n in range(4)] + [gapped]:
        subsets = list(ground.subsets())
        for r in range(1 << len(subsets)):
            yield ground, [s for i, s in enumerate(subsets) if r >> i & 1]
    rng = random.Random(20261018)
    for n in (4, 5, 6):
        ground = GroundSet(n)
        for _ in range(400):
            fam = {rng.randrange(1, 1 << n) for _ in range(rng.randint(1, 6))}
            yield ground, list(fam)
            yield ground, [c for c in fam if not any(d != c and d & ~c == 0 for d in fam)]
    for group in construction_corpus():
        for m in group:
            yield m.ground, list(m.circuits)


def test_circuit_axiom_check_matches_family_scan_oracle():
    seen = {}
    for ground, fam in circuit_families():
        want = error_text(AxiomError, oracle.check_circuit_axioms, ground, sorted(set(fam)))
        assert error_text(AxiomError, Matroid.from_circuits, ground, fam) == want, (ground, fam)
        kind = want and want.split(":")[0].split(";")[0]
        seen[kind] = seen.get(kind, 0) + 1
    assert len(seen) == 4 and min(seen.values()) > 500, seen
