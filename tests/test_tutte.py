import random
from itertools import combinations

import pytest

from mptutte import (
    ConsistencyError,
    GroundSet,
    Matroid,
    Perspective,
    Poly,
    PerspectiveError,
    X,
    Y,
    Z,
    cycle_matroid,
    free_matroid,
    identify_vertices,
    rank_zero_matroid,
    specialize_m0,
    tutte_activities,
    tutte_bivariate_crapo,
    tutte_bivariate_kochol,
    tutte_compatible,
    tutte_m0_expansion,
    tutte_rank_generating,
    uniform_matroid,
)
from mptutte.setcore import MAX_ELEMENTS
from mptutte.tutte import _power_rows
import oracle
from corpus import corpus_matroids, fixture_matroids, fixture_perspective, ladder

FIXTURE_POLY_STR = "x^2*z + x^2 + x*y + 2*x*z + 2*x + y^2 + y*z + 2*y + z + 1"


@pytest.fixture(scope="module")
def fixture():
    return fixture_perspective()


def test_fixture_polynomial_three_ways(fixture):
    a = tutte_activities(fixture)
    c = tutte_compatible(fixture)
    r = tutte_rank_generating(fixture)
    assert str(a) == FIXTURE_POLY_STR
    assert a == c == r


def test_activities_degenerate_perspectives():
    e = GroundSet(1)
    coloop = free_matroid(e)
    assert tutte_activities(Perspective(coloop, coloop)) == X
    loop = rank_zero_matroid(e)
    assert tutte_activities(Perspective(loop, loop)) == Y


def test_compatible_term_examples(fixture):
    # empty set contributes x^r(M') z^(r(M)-r(M')); full set contributes y^r*(M)
    e = fixture.ground
    rq = fixture.quotient.rank()
    assert (rq - fixture.quotient.rank(0), 0 - fixture.matroid.rank(0),
            fixture.rank_defect(0)) == (2, 0, 1)
    full = e.mask
    assert (rq - fixture.quotient.rank(full), 5 - fixture.matroid.rank(full),
            fixture.rank_defect(full)) == (0, 2, 0)


def test_crapo_examples(fixture):
    m, _ = fixture_matroids()
    same = tutte_activities(Perspective(m, m))
    crapo = tutte_bivariate_crapo(m)
    assert crapo == same
    assert crapo.max_z_exponent() == 0
    assert tutte_bivariate_crapo(uniform_matroid(1, GroundSet(2))) == X + Y
    assert tutte_bivariate_crapo(free_matroid(GroundSet(2))) == X * X


def test_kochol_equals_crapo(fixture, small_matroids):
    m, mp = fixture_matroids()
    pool = [m, mp, uniform_matroid(1, GroundSet(2)), rank_zero_matroid(GroundSet(1))]
    pool += small_matroids
    for matroid in pool:
        assert tutte_bivariate_kochol(matroid) == tutte_bivariate_crapo(matroid)


def test_m0_expansion_equals_crapo(corpus, small_matroids):
    m, _ = fixture_matroids()
    pool = [m, uniform_matroid(1, GroundSet(2)), free_matroid(GroundSet(1))]
    pool += small_matroids
    for matroid in pool:
        assert tutte_m0_expansion(matroid) == tutte_bivariate_crapo(matroid)
    # against the per-subset loop the rank-0 compatible route replaced
    g = ladder(12)
    rest = [[v] for v in g.vertices if v not in ("v0", "v3")]
    ladder_m = cycle_matroid(g)
    pool = corpus_matroids(corpus) + [
        ("ladder-12", ladder_m),
        ("ladder-12-identified", cycle_matroid(identify_vertices(g, [["v0", "v3"]] + rest),
                                               ladder_m.ground)),
        ("uniform-4-12", uniform_matroid(4, GroundSet(12))),
    ]
    for name, matroid in pool:
        assert tutte_m0_expansion(matroid) == oracle.m0_expansion(matroid), name


def test_rank_generating_on_identity_pairs(small_matroids):
    for matroid in small_matroids[::2]:
        assert tutte_rank_generating(Perspective(matroid, matroid)) == tutte_bivariate_crapo(matroid)


def test_rank_generating_empty_matroid():
    e = GroundSet(0)
    m = Matroid.from_bases(e, [0])
    assert tutte_rank_generating(Perspective(m, m)) == Poly.constant(1)


def test_rank_generating_refuses_negative_defect():
    # bypass validation: (U(1,2), free) is not a perspective, and the defect
    # at the empty set is 1 - 2 < 0
    e = GroundSet(2)
    p = Perspective.__new__(Perspective)
    p.matroid, p.quotient = uniform_matroid(1, e), free_matroid(e)
    with pytest.raises(PerspectiveError, match=r"negative rank defect at \{\}"):
        tutte_rank_generating(p)


def test_rank_generating_power_rows_are_the_memoized_powers():
    for base in (X - 1, Y - 1):
        for k in range(MAX_ELEMENTS + 1):
            rows = _power_rows(base, k)
            assert [dict(row) for row in rows] == [power.terms() for power in base.powers(k)]
            # tuples all the way down, so no caller can change the shared memo
            assert type(rows) is tuple and all(type(row) is tuple for row in rows)
            assert all(type(term) is tuple for row in rows for term in row)
            # an equal base built afresh, as rank-gen builds it, finds the same object
            assert _power_rows(base * 1, k) is rows


def test_specialize_m0(fixture):
    m, _ = fixture_matroids()
    expected = tutte_bivariate_crapo(m).substitute(x=Z + 1)
    assert specialize_m0(m) == expected
    assert specialize_m0(free_matroid(GroundSet(1))) == Z + 1
    assert specialize_m0(rank_zero_matroid(GroundSet(1))) == Y


def test_specialize_m0_raises_when_the_routes_disagree(monkeypatch):
    monkeypatch.setattr("mptutte.tutte.tutte_bivariate_crapo", lambda m: Y)
    with pytest.raises(ConsistencyError, match=r"activities gave z \+ 1, T_M\(z\+1, y\) gave y$"):
        specialize_m0(free_matroid(GroundSet(1)))


def test_specialize_m0_small(small_matroids):
    for matroid in small_matroids[::3]:
        specialize_m0(matroid)  # internal cross-check raises on any mismatch


def test_evaluation_identities(small_matroids):
    m, _ = fixture_matroids()
    for matroid in [m] + small_matroids[::2]:
        t = tutte_bivariate_crapo(matroid)
        assert t.evaluate(1, 1, 0) == len(matroid.bases)
        assert t.evaluate(2, 2, 0) == 1 << matroid.ground.size


def test_order_invariance_on_fixture():
    base = tutte_activities(fixture_perspective())
    rng = random.Random(99)
    for _ in range(10):
        order = rng.sample(range(1, 6), 5)
        assert tutte_activities(fixture_perspective(order)) == base


def test_m_equals_quotient_has_no_z(small_matroids):
    for matroid in small_matroids[::4]:
        t = tutte_activities(Perspective(matroid, matroid))
        assert t.max_z_exponent() == 0


def test_rank_generating_matches_the_subset_loop_on_corpus(corpus):
    for name, p in corpus:
        assert tutte_rank_generating(p) == oracle.rank_generating(p), name


def test_rank_generating_matches_the_subset_loop_on_gapped_grounds(corpus):
    # restrictions and contractions keep the perspective, on ground sets
    # with missing positions, which the table holds as loops
    rng = random.Random(8)
    checked = 0
    for name, p in corpus[::7]:
        e = p.ground.mask
        for x in {rng.randrange(e + 1) & e for _ in range(3)}:
            for minor in (Perspective(p.matroid.restrict(x), p.quotient.restrict(x)),
                          Perspective(p.matroid.contract(x), p.quotient.contract(x))):
                if minor.ground.mask != (1 << minor.ground.size) - 1:
                    checked += 1
                assert tutte_rank_generating(minor) == oracle.rank_generating(minor), (name, x)
    assert checked > 100


def test_rank_generating_with_16_bit_keys():
    # K = (r(M')+1)(n-r(M)+1)(r(M)-r(M')+1) keys do not fit a byte.
    # U(9,17) over U(4,17): K = 5 * 9 * 6 = 270, though no key reaches 256.
    g = GroundSet(17)
    pairs = [(uniform_matroid(9, g), uniform_matroid(4, g))]
    # U(6,P) + free(Q) over loops(P) + free(Q), |P| = 12, |Q| = 5: K = 6 * 7 * 7
    # = 294, and A = P has key 287
    q_mask = g.mask ^ ((1 << 12) - 1)
    bases = [sum(1 << e for e in c) | q_mask for c in combinations(range(12), 6)]
    pairs.append((Matroid(g, bases, validate=False), Matroid(g, [q_mask])))
    for m, q in pairs:
        p = Perspective(m, q)
        assert tutte_rank_generating(p) == oracle.rank_generating(p)


def test_rank_generating_matches_the_subset_loop_on_unvalidated_pairs(small_matroids):
    # pairs that bypass validation: a negative defect raises the same error at
    # the same first subset; otherwise the sum is the same, even with defects
    # above r(M) - r(M') on pairs that are not perspectives
    def outcome(route, p):
        try:
            return route(p)
        except PerspectiveError as e:
            return str(e)

    errors = high = 0
    for m in small_matroids:
        for q in small_matroids:
            if m.ground == q.ground:
                p = Perspective.__new__(Perspective)
                p.matroid, p.quotient = m, q
                expected = outcome(oracle.rank_generating, p)
                errors += isinstance(expected, str)
                high += not isinstance(expected, str) and any(map(int.__gt__, q.ranks, m.ranks))
                assert outcome(tutte_rank_generating, p) == expected, (m, q)
    assert errors > 0 and high > 0


def truncation(m, k):
    """T^k M, a quotient of M: the independent sets of size r(M) - k as bases."""
    size = m.rank() - k
    return Matroid(m.ground, [x for x in m.ground.subsets() if x.bit_count() == size == m.ranks[x]],
                   validate=False)


def test_las_vergnas_specializations(corpus):
    # with d = r(M) - r(M'), each route's T(M, M'; x, y, z) gives back both
    # matroids' polynomials, taken from the oracle's subset loop on (M, M) and
    # (M', M'): T(x, y, x - 1) = T_M(x, y), and sum over k of
    # (y - 1)^(d - k) [z^k] T = T_M'(x, y).  The corpus's pairs with d > 0 are
    # rank-0 quotients, graphic pairs and the fixture, so truncations are added
    bivariate = {}

    def tutte(m):
        key = m.ground.order, m.bases
        if key not in bivariate:
            bivariate[key] = oracle.rank_generating(Perspective(m, m))
        return bivariate[key]

    truncations = [(f"T^{k} {name}", Perspective(m, truncation(m, k)))
                   for name, m in corpus_matroids(corpus) for k in (1, 2, 3) if k <= m.rank()]
    assert len(truncations) > 1000
    ym1 = (Y - 1).powers(MAX_ELEMENTS)
    for name, p in corpus + truncations:
        d = p.matroid.rank() - p.quotient.rank()
        t_m, t_q = tutte(p.matroid), tutte(p.quotient)
        for route in (tutte_activities, tutte_compatible, tutte_rank_generating):
            t = route(p)
            assert t.substitute(z=X - 1) == t_m, (name, route.__name__)
            by_z = sum((Poly.monomial(a, b, 0, v) * ym1[d - c] for (a, b, c), v in t.terms().items()), Poly())
            assert by_z == t_q, (name, route.__name__)
