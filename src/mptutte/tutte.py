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

The first two sum over families grown top-down along the ground order, at
O(n) rank lookups per member; the oracle visits all 2^n subsets in table passes.
Each route counts its exponent triples and hands Poly one stream of terms.

The bivariate expansions are specializations, not second arithmetic cores:
Crapo's and Kochol's sums are tutte_activities and tutte_compatible on
(M, M), and the (x-1)-power expansion is tutte_compatible on (M, U0), U0 the
rank-0 quotient.  D(M, U0) is {X : E \\ X compatible with M}, and X's term
is x^0 y^r*(M|X) z^r(M/X), so z -> x - 1 gives it.
"""

import sys
from collections import Counter
from functools import cache

from .activities import monomial_counts
from .compatible import compatible_family
from .errors import ConsistencyError
from .matroid import Matroid, rank_zero_matroid, subset_sizes, widen
from .perspective import Perspective
from .polynomial import Poly, X, Y, Z


def tutte_activities(p: Perspective) -> Poly:
    """Sum of x^|Int| y^|Ext| z^defect over valid B; B is independent in M
    and spanning in M', so its rank defect is r(M) - |B|."""
    return Poly(monomial_counts(p.quotient, p.matroid))


def tutte_compatible(p: Perspective) -> Poly:
    """Sum of x^r(M'/X) y^r*(M|X) z^defect over the compatible family."""
    return _compatible_sum(p, compatible_family(p))


def _compatible_sum(p: Perspective, family) -> Poly:
    """tutte_compatible's sum over `family`, for a caller that already holds D."""
    rm, rq = p.matroid.ranks, p.quotient.ranks
    full_m, full_q = p.matroid.rank(), p.quotient.rank()
    return Poly(Counter((full_q - rq[x], x.bit_count() - rm[x], full_m - full_q - rm[x] + rq[x])
                        for x in family))


def tutte_rank_generating(p: Perspective) -> Poly:
    """Corank-nullity oracle: sum over every subset A of

        (x-1)^(r(M') - r_{M'}(A)) * (y-1)^(|A| - r_M(A)) * z^defect(A).

    Lane A of one packed int holds the mixed-radix key of that exponent
    triple, linear in r_{M'}(A), r_M(A) and |A|; the keys are counted in C.
    Each distinct key's (y-1)^j row is folded into a map keyed by (i, y
    exponent, defect), and (x-1)^i is expanded once per entry of that map.
    Lanes are bytes while the keys fit one, else 16 bits.  A missing position
    of a gapped ground set is a loop left out of |A|, so each key counts
    2^gaps times.  The rows of (x-1)^0..(x-1)^r(M') and (y-1)^0..(y-1)^n are
    built once per exponent per process (_power_rows).
    """
    rm, rq = p.matroid.ranks, p.quotient.ranks
    full_m, full_q, n = p.matroid.rank(), p.quotient.rank(), p.ground.size
    size, span_j, span_d = len(rm), n - full_m + 1, full_m - full_q + 1
    ones = int.from_bytes(b"\x01" * size, "little")
    # lane A = 64 + defect(A), in 16..112, borrows from no neighbour
    lanes = (64 + full_m - full_q) * ones - int.from_bytes(rm, "little") + int.from_bytes(rq, "little")
    if 0x40 * ones & ~lanes:
        for a in p.ground.subsets():
            p.rank_defect(a)  # raises at the first negative defect, naming A
    if 0x80 * ones & (lanes + (64 - span_d) * ones):  # some defect(A) >= span_d
        span_d = full_m + 1  # not a perspective, but no defect exceeds r(M)
    del ones, lanes
    width = 1 if (full_q + 1) * span_j * span_d <= 256 else 2

    def wide(table):
        return int.from_bytes(widen(table, width), "little")

    # ((r(M') - r_{M'}(A)) * span_j + |A| - r_M(A)) * span_d + defect(A), one
    # table at a time: beside the sum, only one widened table and its multiple
    keys = (full_q * span_j * span_d + full_m - full_q) * wide(b"\x01" * size)
    keys += span_d * wide(subset_sizes(size, p.ground.mask))
    keys -= (span_j * span_d - 1) * wide(rq)
    keys -= (span_d + 1) * wide(rm)
    # lanes in native byte order, so the cast reads each key
    counts = Counter(memoryview(keys.to_bytes(width * size, sys.byteorder)).cast("BH"[width - 1]))
    xm1, ym1 = _power_rows(X - 1, full_q), _power_rows(Y - 1, n)
    folded = Counter()  # (i, y exponent, defect) -> coefficient, before (x-1)^i
    for key, count in counts.items():
        i, j, d = key // (span_j * span_d), key // span_d % span_j, key % span_d
        count = count * 2**n // size
        for (_, b, _), v in ym1[j]:
            folded[i, b, d] += v * count
    return Poly(((a, b, d), u * v) for (i, b, d), v in folded.items() for (a, _, _), u in xm1[i])


@cache
def _power_rows(base: Poly, k: int) -> tuple:
    """The terms of base^0..base^k from Poly.powers, one tuple of
    (exponent triple, coefficient) pairs per power; immutable, so callers
    share one memo."""
    return tuple(tuple(power.terms().items()) for power in base.powers(k))


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

    with the (x-1) powers expanded exactly: tutte_compatible on (M, U0),
    whose z counts r(M/X), at z = x - 1.  Equals tutte_bivariate_crapo.
    """
    return tutte_compatible(Perspective(m, rank_zero_matroid(m.ground))).substitute(z=X - 1)


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

