"""The rank table and every lookup built on it, against the oracle module.

The oracle scans circuit families derived from the bases and never touches
the rank table, so agreement here checks the table, the activity pass, the
compatibility test and the compatible family independently.
"""

import pytest

import oracle
from mptutte import (
    DomainError,
    GroundSet,
    backward,
    compatible_family,
    cycle_matroid,
    externally_active,
    free_matroid,
    identify_vertices,
    internally_active,
    is_compatible,
    uniform_matroid,
)
from corpus import ladder


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
    with pytest.raises(DomainError, match=r"25 elements needs 2\^25 = 33554432 entries"):
        free_matroid(GroundSet(25)).rank(1)
