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

Since both tests read only the members of X above e, the valid sets B
(independent in the matroid, spanning in the quotient) and their activities
are grown from the top of the order down, one prefix Y = B_{>e} at a time.
With below(e) the elements under e, e may join while r_M(Y + e) > r_M(Y), and
may stay out while r_M'(Y + below(e)) = r(M'); a forced step is an active
element: e joins only when leaving it out loses spanning, which is when e is
internally active, and stays out only when it is spanned by Y, which is when
it is externally active.  Because M' is a quotient of M, an element spanned
by Y in M is spanned by Y + below(e) in M', so some step is always open and
every prefix kept ends in a valid set: the pass does O(n) lookups per valid
set instead of testing all 2^n subsets.
"""

from .matroid import Matroid


def activities(quotient: Matroid, matroid: Matroid, x: int) -> tuple:
    """(Int_{quotient}(X), Ext_{matroid}(X)) as masks (two matroids on one
    ground set), in one pass from the `<`-greatest element down."""
    ground = matroid.ground
    ground.check_subset(x)
    rq, rm = quotient.ranks, matroid.ranks
    internal = external = above = 0
    t = ground.mask
    for e in reversed(ground.order):
        b = 1 << (e - 1)  # bit(e), inlined: this loop is the hottest in the package
        if b & x:
            if rq[t ^ b] < rq[t]:
                internal |= b
            above |= b
        else:
            if rm[above | b] == rm[above]:
                external |= b
            t ^= b
    return internal, external


def valid_sets_with_activities(quotient: Matroid, matroid: Matroid) -> list:
    """(B, Int_{quotient}(B), Ext_{matroid}(B)) as masks for every B independent
    in `matroid` and spanning in `quotient`, in no particular order."""
    ground = matroid.ground
    rq, rm = quotient.ranks, matroid.ranks
    full = rq[ground.mask]
    below = ground.mask
    states = [(0, 0, 0)]
    for e in reversed(ground.order):
        b = 1 << (e - 1)
        below ^= b
        grown = []
        for y, internal, external in states:
            if rm[y | b] == rm[y]:
                grown.append((y, internal, external | b))
            elif rq[y | below] < full:
                grown.append((y | b, internal | b, external))
            else:
                grown.append((y, internal, external))
                grown.append((y | b, internal, external))
        states = grown
    return states


def externally_active(m: Matroid, x: int) -> int:
    """Mask of elements of E \\ X that are `<`-minimal in a circuit of X + e."""
    return activities(m, m, x)[1]


def internally_active(m: Matroid, x: int) -> int:
    """Mask of elements of X that are `<`-minimal in a cocircuit of (E \\ X) + e."""
    return activities(m, m, x)[0]
