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

The pass files the prefixes by their activities so far: a class maps one
key to the list of its prefixes, plain masks of B.  An externally active e
adds e to the key's Ext, an internally active e to the key's Int and to
each B, and an open step keeps the key and lists both B and B + e, so a
class has at most three successors per level.  The key is Int | Ext << n
(n the ground mask's bit length) when the caller needs the masks, and
|Int| + 32|Ext| when it needs only the counts: a count is at most
MAX_ELEMENTS = 24, so the 5-bit field holds |Int|.  Every B of one class
shares its Int, Ext and so its monomial but for the power of z, which
|B| gives.
"""

from collections import Counter

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


def activity_classes(quotient: Matroid, matroid: Matroid, masks: bool) -> dict:
    """Every B independent in `matroid` and spanning in `quotient`, filed by
    its activities: key -> list of B, the key Int_{quotient}(B) |
    Ext_{matroid}(B) << n if `masks`, else |Int| + 32|Ext|."""
    ground = matroid.ground
    rq, rm = quotient.ranks, matroid.ranks
    full = rq[ground.mask]
    n = ground.mask.bit_length()
    below = ground.mask
    classes = {0: [0]}
    for e in reversed(ground.order):
        b = 1 << (e - 1)
        below ^= b
        # what e adds to the key when it is externally or internally active
        external, internal = (b << n, b) if masks else (32, 1)
        grown = {}
        for key, bs in classes.items():
            out, joined, either = [], [], []
            for y in bs:
                if rm[y | b] == rm[y]:
                    out.append(y)
                elif rq[y | below] < full:
                    joined.append(y | b)
                else:
                    either.append(y)
                    either.append(y | b)
            # unrolled: a loop over the three (key, list) pairs costs a tuple per class
            if out:
                k = key + external
                if k in grown:
                    grown[k] += out
                else:
                    grown[k] = out
            if joined:
                k = key + internal
                if k in grown:
                    grown[k] += joined
                else:
                    grown[k] = joined
            if either:
                if key in grown:
                    grown[key] += either
                else:
                    grown[key] = either
        classes = grown
    return classes


def valid_sets(quotient: Matroid, matroid: Matroid) -> list:
    """Every B independent in `matroid` and spanning in `quotient`, unordered."""
    return [b for bs in activity_classes(quotient, matroid, False).values() for b in bs]


def monomial_counts(quotient: Matroid, matroid: Matroid) -> list:
    """((|Int|, |Ext|, r(matroid) - |B|), number of valid B with it) pairs."""
    rank = matroid.rank()
    return [((key & 31, key >> 5, rank - size), count)
            for key, bs in activity_classes(quotient, matroid, False).items()
            for size, count in Counter(map(int.bit_count, bs)).items()]


def externally_active(m: Matroid, x: int) -> int:
    """Mask of elements of E \\ X that are `<`-minimal in a circuit of X + e."""
    return activities(m, m, x)[1]


def internally_active(m: Matroid, x: int) -> int:
    """Mask of elements of X that are `<`-minimal in a cocircuit of (E \\ X) + e."""
    return activities(m, m, x)[0]
