"""Internal and external activities of a subset under the ground order.

An element e outside X is externally active when some circuit inside X + e
has e as its `<`-least element; e in X is internally active when some
cocircuit inside (E \\ X) + e has e as its least element.  Both accept
arbitrary subsets, not just bases; nothing here assumes independence.

Both are rank questions, answered by lookups in the rank tables.  With
X_{>e} the members of X above e, and T = E minus the members of E \\ X
above e:

  * e not in X is externally active iff e is spanned by X_{>e}, that is
    r(X_{>e} + e) = r(X_{>e});
  * e in X is internally active iff e is a coloop of M|T, that is
    r(T - e) < r(T).

One pass over the order from the top maintains X_{>e} and T for every e.
The circuit-literal definitions live in the tests as the oracle these are
checked against.
"""

from .matroid import Matroid


def active_elements(quotient: Matroid, matroid: Matroid, x: int):
    """Yield, as one-bit masks from the `<`-greatest down, each element of X
    internally active in `quotient` and each element outside X externally
    active in `matroid` (two matroids on one ground set)."""
    ground = matroid.ground
    ground.check_subset(x)
    rq, rm = quotient.ranks, matroid.ranks
    above = 0
    t = ground.mask
    for e in reversed(ground.order):
        b = 1 << (e - 1)  # bit(e), inlined: this loop is the hottest in the package
        if b & x:
            if rq[t ^ b] < rq[t]:
                yield b
            above |= b
        else:
            if rm[above | b] == rm[above]:
                yield b
            t ^= b


def activities(quotient: Matroid, matroid: Matroid, x: int) -> tuple:
    """(Int_{quotient}(X), Ext_{matroid}(X)) as masks."""
    internal = external = 0
    for b in active_elements(quotient, matroid, x):
        if b & x:
            internal |= b
        else:
            external |= b
    return internal, external


def externally_active(m: Matroid, x: int) -> int:
    """Mask of elements of E \\ X that are `<`-minimal in a circuit of X + e."""
    return activities(m, m, x)[1]


def internally_active(m: Matroid, x: int) -> int:
    """Mask of elements of X that are `<`-minimal in a cocircuit of (E \\ X) + e."""
    return activities(m, m, x)[0]
