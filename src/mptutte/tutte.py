"""Tutte polynomials of matroids and matroid perspectives, several ways.

Three routes compute the trivariate polynomial of a perspective and must
agree coefficient-exactly:

  * tutte_activities      - activities expansion over sets independent in
                            the matroid and spanning in the quotient
                            (Las Vergnas),
  * tutte_compatible      - compatible-sets expansion over D(M, M', <)
                            (Kochol),
  * tutte_rank_generating - corank-nullity sum over all subsets; order-free,
                            activity-free, and kept strictly as the
                            cross-validation oracle.

The bivariate specializations are the M = M' and quotient-of-rank-0 cases:
Crapo's activities sum over bases and Kochol's compatible-sets sum are
tutte_activities and tutte_compatible on (M, M), and the (x-1)-power
expansion shares the same arithmetic core.
"""

from .activities import activities
from .compatible import compatible_family, is_compatible
from .errors import ConsistencyError
from .matroid import Matroid, rank_zero_matroid
from .perspective import Perspective
from .polynomial import ONE, Poly, X, Y, Z


def tutte_activities(p: Perspective) -> Poly:
    """Sum of x^|Int| y^|Ext| z^defect over valid B."""
    terms = {}
    for b in p.independent_spanning_sets():
        internal, external = activities(p.quotient, p.matroid, b)
        key = (internal.bit_count(), external.bit_count(), p.rank_defect(b))
        terms[key] = terms.get(key, 0) + 1
    return Poly(terms)


def tutte_compatible(p: Perspective) -> Poly:
    """Sum of x^r(M'/X) y^r*(M|X) z^defect over the compatible family."""
    rq = p.quotient.rank()
    terms = {}
    for x in compatible_family(p):
        key = (
            rq - p.quotient.rank(x),
            x.bit_count() - p.matroid.rank(x),
            p.rank_defect(x),
        )
        terms[key] = terms.get(key, 0) + 1
    return Poly(terms)


def tutte_rank_generating(p: Perspective) -> Poly:
    """Corank-nullity oracle: sum over every subset A of

        (x-1)^(r(M') - r_{M'}(A)) * (y-1)^(|A| - r_M(A)) * z^defect(A).

    The exponent triples are counted first; each distinct one is expanded once.
    """
    rm, rq = p.matroid.ranks, p.quotient.ranks
    full_m, full_q = p.matroid.rank(), p.quotient.rank()
    counts = {}
    for a in p.ground.subsets():
        defect = full_m - full_q - rm[a] + rq[a]
        if defect < 0:
            p.rank_defect(a)  # raises, naming A
        key = (full_q - rq[a], a.bit_count() - rm[a], defect)
        counts[key] = counts.get(key, 0) + 1
    xm1 = _powers(X - 1, full_q)
    ym1 = _powers(Y - 1, p.ground.size)
    total = Poly()
    for (i, j, k), count in counts.items():
        total = total + xm1[i] * ym1[j] * Poly.monomial(0, 0, k, count)
    return total


def tutte_bivariate_crapo(m: Matroid) -> Poly:
    """Activities expansion of the ordinary Tutte polynomial, the (M, M) case
    of tutte_activities: sum over bases of x^|Int(B)| y^|Ext(B)|."""
    return tutte_activities(Perspective(m, m))


def tutte_bivariate_kochol(m: Matroid) -> Poly:
    """Compatible-sets expansion, the (M, M) case of tutte_compatible: sum
    over D(M, <) of x^r(M/X) y^r*(M|X)."""
    return tutte_compatible(Perspective(m, m))


def tutte_m0_expansion(m: Matroid) -> Poly:
    """Alternate compatible-sets expansion of T_M(x, y):

        sum over X with E \\ X compatible of (x-1)^r(M/X) y^r*(M|X),

    with the (x-1) powers expanded exactly.  Equals tutte_bivariate_crapo.
    """
    r = m.rank()
    xm1 = _powers(X - 1, r)
    full = m.ground.mask
    total = Poly()
    for x in m.ground.subsets():
        if not is_compatible(m, full ^ x):
            continue
        rx = m.rank(x)
        total = total + xm1[r - rx] * Poly.monomial(0, x.bit_count() - rx, 0)
    return total


def specialize_m0(m: Matroid) -> Poly:
    """Trivariate polynomial of (M, rank-0 quotient), cross-checked against
    T_M(z+1, y).

    Both routes are computed; disagreement means an implementation bug, so it
    raises rather than returning either value.
    """
    p = Perspective(m, rank_zero_matroid(m.ground))
    direct = tutte_activities(p)
    via_substitution = tutte_bivariate_crapo(m).substitute(x=Z + 1)
    if direct != via_substitution:
        raise ConsistencyError(
            f"quotient-of-rank-0 mismatch: activities gave {direct}, "
            f"T_M(z+1, y) gave {via_substitution}"
        )
    return direct


def _powers(base: Poly, up_to: int) -> list:
    out = [ONE]
    for _ in range(up_to):
        out.append(out[-1] * base)
    return out
