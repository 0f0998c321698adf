"""Compatible sets and the families they index.

X is compatible with a matroid (under the ground order) when no circuit C
meets X exactly in C's `<`-least element; equivalently, no element of X is
externally active with respect to E \\ X.  The family D(M, M', <) collects
the X that are compatible with (M')* while E \\ X is compatible with M; for
M = M' this is Kochol's original D(M, <).  In activity terms, X is in D
exactly when Int_{M'}(X) and Ext_M(X) are both empty.

compatible_family enumerates all 2^n subsets and tests each with one
activity pass that stops at the first active element.  The definition-literal
circuit scans live in the tests' oracle module, which checks this family and
is_compatible against them on the whole corpus.
"""

from .activities import active_elements, externally_active
from .matroid import Matroid
from .perspective import Perspective


def is_compatible(m: Matroid, x: int) -> bool:
    """True iff no circuit C has X ∩ C = {min(C)}, i.e. X ∩ Ext_M(E \\ X) = ∅."""
    return not externally_active(m, m.ground.complement(x))


def in_family(p: Perspective, x: int) -> bool:
    """True iff X is in D(M, M', <): Int_{M'}(X) and Ext_M(X) are empty."""
    return not any(active_elements(p.quotient, p.matroid, x))


def compatible_family(p: Perspective) -> list:
    """All X with X compatible for quotient* and E \\ X compatible for the
    matroid, in increasing mask order."""
    return [x for x in p.ground.subsets() if in_family(p, x)]


def compatible_family_single(m: Matroid) -> list:
    """D(M, <): the perspective family of (M, M)."""
    return compatible_family(Perspective(m, m))
