"""Compatible sets and the families they index.

X is compatible with a matroid (under the ground order) when no circuit C
meets X exactly in C's `<`-least element; equivalently, no element of X is
externally active with respect to E \\ X.  The family D(M, M', <) collects
the X that are compatible with (M')* while E \\ X is compatible with M; for
M = M' this is Kochol's original D(M, <).  In activity terms, X is in D
exactly when Int_{M'}(X) and Ext_M(X) are both empty.

compatible_family grows D from the top of the order down, one prefix
Y = X_{>e} at a time, since both activity tests at e read only the members of
X above e.  Tracking u = r_M'(Y + e + below(e)), the rank of everything not
yet left out, e may stay out iff r_M(Y + e) > r_M(Y) (e not externally
active) and may join iff r_M'(Y + below(e)) = u (e not internally active).
Because M' is a quotient of M, an element spanned by Y in M is spanned by
Y + below(e) in M', so one step is always open and every prefix kept ends in
D: O(n) lookups per member instead of an activity pass per subset.  This
pass is independent of the valid-set pass and the bijection, so the
compatible route still cross-checks the activities route.  The
definition-literal circuit scans live in the tests' oracle module, which
checks this family and is_compatible against them on the whole corpus.
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
    matroid, in increasing mask order."""
    rm, rq = p.matroid.ranks, p.quotient.ranks
    below = p.ground.mask
    states = [(0, rq[below])]
    for e in reversed(p.ground.order):
        b = 1 << (e - 1)
        below ^= b
        grown = []
        for y, u in states:
            r = rq[y | below]
            if rm[y | b] > rm[y]:
                grown.append((y, r))
            if r == u:
                grown.append((y | b, u))
        states = grown
    return sorted(y for y, _ in states)

