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

The bivariate specializations are the M = M' and quotient-of-rank-0 cases:
Crapo's activities sum over bases and Kochol's compatible-sets sum are
tutte_activities and tutte_compatible on (M, M), and the (x-1)-power
expansion shares the same arithmetic core.
"""

import sys
from collections import Counter

from .activities import valid_sets_with_activities
from .compatible import compatible_family, is_compatible
from .errors import ConsistencyError
from .matroid import Matroid, rank_zero_matroid, subset_sizes
from .perspective import Perspective
from .polynomial import ONE, Poly, X, Y, Z


def tutte_activities(p: Perspective) -> Poly:
    """Sum of x^|Int| y^|Ext| z^defect over valid B; B is independent in M
    and spanning in M', so its rank defect is r(M) - |B|."""
    full = p.matroid.rank()
    terms = {}
    for b, internal, external in valid_sets_with_activities(p.quotient, p.matroid):
        key = (internal.bit_count(), external.bit_count(), full - b.bit_count())
        terms[key] = terms.get(key, 0) + 1
    return Poly(terms)


def tutte_compatible(p: Perspective) -> Poly:
    """Sum of x^r(M'/X) y^r*(M|X) z^defect over the compatible family."""
    rm, rq = p.matroid.ranks, p.quotient.ranks
    full_m, full_q = p.matroid.rank(), p.quotient.rank()
    terms = {}
    for x in compatible_family(p):
        key = (full_q - rq[x], x.bit_count() - rm[x], full_m - full_q - rm[x] + rq[x])
        terms[key] = terms.get(key, 0) + 1
    return Poly(terms)


def tutte_rank_generating(p: Perspective) -> Poly:
    """Corank-nullity oracle: sum over every subset A of

        (x-1)^(r(M') - r_{M'}(A)) * (y-1)^(|A| - r_M(A)) * z^defect(A).

    Lane A of one packed int holds the mixed-radix key of that exponent
    triple, linear in r_{M'}(A), r_M(A) and |A|; the keys are counted in C and
    each distinct one is expanded once.  Lanes are bytes while the keys fit
    one, else 16 bits.  A missing position of a gapped ground set is a loop
    left out of |A|, so each key counts 2^gaps times.
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
    width = 1 if (full_q + 1) * span_j * span_d <= 256 else 2

    def wide(table):
        out = bytearray(width * size)
        out[::width] = table
        return int.from_bytes(out, "little")

    # ((r(M') - r_{M'}(A)) * span_j + |A| - r_M(A)) * span_d + defect(A)
    keys = ((full_q * span_j * span_d + full_m - full_q) * wide(b"\x01" * size)
            + span_d * wide(subset_sizes(size, p.ground.mask))
            - (span_j * span_d - 1) * wide(rq) - (span_d + 1) * wide(rm))
    # lanes in native byte order, so the cast reads each key
    counts = Counter(memoryview(keys.to_bytes(width * size, sys.byteorder)).cast("BH"[width - 1]))
    xm1, ym1 = _powers(X - 1, full_q), _powers(Y - 1, n)
    return sum((xm1[key // (span_j * span_d)] * ym1[key // span_d % span_j]
                * Poly.monomial(0, 0, key % span_d, count * 2**n // size)
                for key, count in counts.items()), Poly())


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
