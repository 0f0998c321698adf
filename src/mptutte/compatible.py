"""Compatible sets and the families they index.

X is compatible with a matroid (under the ground order) when no circuit C
meets X exactly in C's `<`-least element; equivalently, no element of X is
externally active with respect to E \\ X.  The family D(M, M', <) collects
the X that are compatible with (M')* while E \\ X is compatible with M; for
M = M' this is Kochol's original D(M, <).  In activity terms, X is in D
exactly when Int_{M'}(X) and Ext_M(X) are both empty.

compatible_family grows D from the top of the order down, one prefix
Y = X_{>e} at a time, since both activity tests at e read only the members of
X above e.  It is the mirror image of the valid-set pass in the activities
module: there an active element is forced to the side that makes it active,
here it is barred from that side.  With below(e) the elements under e, e may
stay out unless r_M(Y + e) = r_M(Y) (e externally active), and may join
unless r_M'(Y + below(e)) < r_M'(Y + e + below(e)) (e internally active).
The two tests are the activity tests themselves, so the pass returns D for
any pair of matroids on one ground set.  Because M' is a quotient of M, an
element spanned by Y in M is spanned by Y + below(e) in M', so some step is
always open and no prefix dies: O(n) lookups per member instead of an
activity pass per subset.  This pass is independent of the valid-set pass
and the bijection, so the compatible route still cross-checks the activities
route.  The definition-literal circuit scans live in the tests' oracle
module, which checks this family and is_compatible against them on the whole
corpus and on pairs that are not perspectives.
"""

from .activities import activities, externally_active
from .matroid import Matroid
from .perspective import Perspective


def is_compatible(m: Matroid, x: int) -> bool:
    """True iff no circuit C has X ∩ C = {min(C)}, i.e. X ∩ Ext_M(E \\ X) = ∅."""
    return not externally_active(m, m.ground.complement(x))


def in_family(p: Perspective, x: int) -> bool:
    """True iff X is in D(M, M', <): Int_{M'}(X) and Ext_M(X) are empty."""
    return activities(p.quotient, p.matroid, x) == (0, 0)


def compatible_family(p: Perspective) -> list:
    """All X with X compatible for quotient* and E \\ X compatible for the
    matroid, in an unspecified order: the prefixes Y, plain masks, that
    survive both tests at every element from the top of the order down."""
    rm, rq = p.matroid.ranks, p.quotient.ranks
    below = p.ground.mask
    prefixes = [0]
    for e in reversed(p.ground.order):
        b = 1 << (e - 1)
        below ^= b
        grown = []
        for y in prefixes:
            if rm[y | b] > rm[y]:
                grown.append(y)
            t = y | below
            if rq[t] == rq[t | b]:
                grown.append(y | b)
        prefixes = grown
    return prefixes
