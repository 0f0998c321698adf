"""The activity/compatible-set bijection for a matroid perspective.

forward sends a set B (independent in the matroid, spanning in the quotient)
to X = B \\ Int(B) ∪ Ext(B), landing in the compatible family; backward
inverts it via minimal bases of the restriction's dual and the contracted
quotient:

    backward(X) = X \\ min_basis((M|X)*) ∪ min_basis(M'/X)

Both minimal bases are found greedily with rank lookups in M and M'; no
minor is built, and the pass stops once neither basis can change.  backward
first proves X in D, then runs _inverse, the one implementation of that
greedy pass.  `check`'s round trips take membership in D from their
compatible pass and call _inverse directly on each valid set's image, read
off its activity class; they build the table, and call backward, only when
they have found a fault, to name its first row.

bijection_table lays out one row per valid B, ordered by size then
lexicographically, with the monomial exponents
(|Int|, |Ext|, rank defect) that drive the trivariate polynomial.  It and
the CLI's `table` share one order, built by _table_order from activities'
top-down pass, which files the valid sets by (Int, Ext): each class gets an
index c, each of its B is packed into the plain int
size_lex_key(B) << (n + bits of c) | c << n | B in a list for |B|, and each
list is sorted by a bare list.sort().  size_lex_key is injective, so the
ints sort exactly as the sets do, and a row reads B and its class back off
its int.  A row is a BijectionRow, a collections.namedtuple (b, internal,
external, x, monomial) of masks and that triple: immutable and hashable, and
built as cheaply as a tuple.
"""

from collections import namedtuple

from .activities import activities, activity_classes
from .compatible import in_family
from .errors import DomainError
from .perspective import Perspective


# One table row: B with its activities, image X, and monomial exponents.
BijectionRow = namedtuple("BijectionRow", "b internal external x monomial")


def forward(p: Perspective, b: int) -> int:
    """X = B \\ Int_{quotient}(B) ∪ Ext_{matroid}(B)."""
    if not (p.matroid.is_independent(b) and p.quotient.is_spanning(b)):
        raise DomainError(
            f"{p.ground.fmt(b)} is not independent-in-matroid and spanning-in-quotient"
        )
    internal, external = activities(p.quotient, p.matroid, b)
    return (b & ~internal) | external


def backward(p: Perspective, x: int) -> int:
    """B = X \\ min_basis((M|X)*) ∪ min_basis(M'/X), for X in D.

    X is checked to be a subset of E and a member of D (DomainError
    otherwise), then inverted by _inverse.  `check` takes membership from
    its compatible pass and calls _inverse itself; it calls backward only
    to name a failing row.
    """
    p.ground.check_subset(x)
    if not in_family(p, x):
        raise DomainError(f"{p.ground.fmt(x)} is not in the compatible family")
    return _inverse(p, x)


def _inverse(p: Perspective, x: int) -> int:
    """backward without the membership check: X is taken to be in D.

    Scanning E in `<` order, e in X leaves the kept part of X while what is
    kept still spans X in M, and e outside X joins the basis of M'/X while it
    raises the M'-rank of X plus what joined; that rank is kept in a local,
    up by one at each join.  The pass stops once the kept part is
    independent (|rest| = r_M(X)) and r = r(M'): no element can then leave
    or join, so `left` counts the moves still to come.
    """
    rm, rq = p.matroid.ranks, p.quotient.ranks
    target = rm[x]
    rest = x
    span, r = x, rq[x]
    left = x.bit_count() - target + rq[p.ground.mask] - r
    for e in p.ground.order:
        if not left:
            break
        b = 1 << (e - 1)  # bit(e), inlined as in activities
        if b & x:
            if rm[rest ^ b] == target:
                rest ^= b
                left -= 1
        elif rq[span | b] > r:
            span |= b
            r += 1
            left -= 1
    return rest | (span ^ x)


def bijection_table(p: Perspective) -> list:
    """Rows for every valid B, sorted by (size, lex)."""
    classes, sizes, cmask = _table_order(p)
    low, n, rank = p.ground.mask, p.ground.mask.bit_length(), p.matroid.rank()
    counts = [(internal.bit_count(), external.bit_count()) for internal, external in classes]
    pairs = set(counts)  # a table has few distinct pairs
    new = tuple.__new__  # BijectionRow's own __new__ adds a call per row
    rows = []
    for size, order in enumerate(sizes):
        terms = {pair: (*pair, rank - size) for pair in pairs}  # pair -> its triple at this size
        for v in order:
            b, c = v & low, v >> n & cmask
            internal, external = classes[c]
            rows.append(new(BijectionRow, (b, internal, external, b & ~internal | external, terms[counts[c]])))
    return rows


def _table_order(p: Perspective) -> tuple:
    """The table's order as plain ints, shared by bijection_table and the
    CLI's `table`: (classes, sizes, cmask).  classes lists each activity
    class's (Int, Ext); sizes[k] holds, sorted, one int per valid B of size
    k, size_lex_key(B) << (n + cbits) | c << n | B with c its class's index,
    so B = v & mask and c = v >> n & cmask.  size_lex_key is injective, so
    a bare sort of the ints is the table's order."""
    low, n, key = p.ground.mask, p.ground.mask.bit_length(), p.ground.size_lex_key
    found = activity_classes(p.quotient, p.matroid, True)
    cbits = len(found).bit_length()
    shift = n + cbits
    classes, sizes = [], [[] for _ in range(n + 1)]
    appends = [order.append for order in sizes]
    while found:  # popped, so each class's list is freed once packed
        k, bs = found.popitem()
        c = len(classes) << n
        classes.append((k & low, k >> n))
        for b in bs:
            appends[b.bit_count()](key(b) << shift | c | b)
    for order in sizes:
        order.sort()
    return classes, sizes, (1 << cbits) - 1
