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
off its activity class; only when they have found a fault do they build the
table and run backward, the checked g, row by row to name the first failing
row.

bijection_table lays out one row per valid B, ordered by size then
lexicographically, with the monomial exponents
(|Int|, |Ext|, rank defect) that drive the trivariate polynomial.  It reads
the rows straight off activities' top-down pass, which files the valid sets
by (Int, Ext) and hands each class over as a triple (Int, Ext, list of B),
and sorts them by size_lex_key.  A row is a BijectionRow, an immutable,
hashable collections.namedtuple (b, internal, external, x, monomial) of
masks and that triple.
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
    rank, key = p.matroid.rank(), p.ground.size_lex_key
    rows = [BijectionRow(b, internal, external, b & ~internal | external,
                         (internal.bit_count(), external.bit_count(), rank - b.bit_count()))
            for internal, external, bs in activity_classes(p.quotient, p.matroid, True)
            for b in bs]
    rows.sort(key=lambda row: key(row.b))
    return rows
