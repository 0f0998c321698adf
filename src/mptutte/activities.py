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

A prefix's state is one int.  With n the bit length of the ground mask, it
holds B in bits 0..n-1, Int(B) from bit n, Ext(B) from bit 2n, and from bit
3n the counts |Int| + 32|Ext| + 1024|B|.  A count is at most MAX_ELEMENTS =
24, so a 5-bit field holds it without carrying into the next.  Each branch
of a level adds one constant to the state.  Only this module reads the
layout: valid_sets gives the bare B's, monomial_counts counts the top field
alone and decodes each distinct value once, and unpacked gives every field.
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


def valid_sets_with_activities(quotient: Matroid, matroid: Matroid) -> list:
    """One packed int per B independent in `matroid` and spanning in
    `quotient`, in no particular order: with n the ground mask's bit length,
    B | Int_{quotient}(B) << n | Ext_{matroid}(B) << 2n | counts << 3n, where
    counts = |Int| + 32|Ext| + 1024|B|."""
    ground = matroid.ground
    rq, rm = quotient.ranks, matroid.ranks
    full = rq[ground.mask]
    low, n = ground.mask, ground.mask.bit_length()
    below = ground.mask
    states = [0]
    for e in reversed(ground.order):
        b = 1 << (e - 1)
        below ^= b
        # what each branch adds: e externally active, e internally active
        # (it joins B), or e joining B by choice
        external = (b << 2 * n) + (32 << 3 * n)
        internal = b + (b << n) + (1025 << 3 * n)
        joined = b + (1024 << 3 * n)
        grown = []
        for s in states:
            y = s & low
            if rm[y | b] == rm[y]:
                grown.append(s + external)
            elif rq[y | below] < full:
                grown.append(s + internal)
            else:
                grown.append(s)
                grown.append(s + joined)
        states = grown
    return states


def exponents(counts: int, rank: int) -> tuple:
    """(|Int|, |Ext|, rank - |B|) from a state's counts field."""
    return counts & 31, counts >> 5 & 31, rank - (counts >> 10)


def valid_sets(quotient: Matroid, matroid: Matroid) -> list:
    """Every B independent in `matroid` and spanning in `quotient`, unordered."""
    low = matroid.ground.mask
    return [s & low for s in valid_sets_with_activities(quotient, matroid)]


def monomial_counts(quotient: Matroid, matroid: Matroid) -> list:
    """((|Int|, |Ext|, r(matroid) - |B|), number of valid B with it) pairs."""
    shift, rank = 3 * matroid.ground.mask.bit_length(), matroid.rank()
    counts = Counter(s >> shift for s in valid_sets_with_activities(quotient, matroid))
    return [(exponents(k, rank), c) for k, c in counts.items()]


def unpacked(quotient: Matroid, matroid: Matroid):
    """(B, Int(B), Ext(B), (|Int|, |Ext|, r(matroid) - |B|)) for every valid
    B, in no particular order."""
    low, n, rank = matroid.ground.mask, matroid.ground.mask.bit_length(), matroid.rank()
    monomials = {}  # counts field -> triple, shared by the rows that have it
    for s in valid_sets_with_activities(quotient, matroid):
        k = s >> 3 * n
        if k not in monomials:
            monomials[k] = exponents(k, rank)
        yield s & low, s >> n & low, s >> 2 * n & low, monomials[k]


def externally_active(m: Matroid, x: int) -> int:
    """Mask of elements of E \\ X that are `<`-minimal in a circuit of X + e."""
    return activities(m, m, x)[1]


def internally_active(m: Matroid, x: int) -> int:
    """Mask of elements of X that are `<`-minimal in a cocircuit of (E \\ X) + e."""
    return activities(m, m, x)[0]
