"""The activity/compatible-set bijection for a matroid perspective.

forward sends a set B (independent in the matroid, spanning in the quotient)
to X = B \\ Int(B) ∪ Ext(B), landing in the compatible family; backward
inverts it via minimal bases of the restriction's dual and the contracted
quotient:

    backward(X) = X \\ min_basis((M|X)*) ∪ min_basis(M'/X)

Both minimal bases are found greedily with rank lookups in M and M'; no
minor is built.

bijection_table lays out one row per valid B, ordered by size then
lexicographically, with the monomial exponents
(|Int|, |Ext|, rank defect) that drive the trivariate polynomial.
"""

from dataclasses import dataclass

from .activities import activities, valid_sets_with_activities
from .compatible import in_family
from .errors import DomainError
from .perspective import Perspective
from .setcore import bit


@dataclass(frozen=True)
class BijectionRow:
    """One table row: B with its activities, image X, and monomial exponents."""

    b: int
    internal: int
    external: int
    x: int
    monomial: tuple


def forward(p: Perspective, b: int) -> int:
    """X = B \\ Int_{quotient}(B) ∪ Ext_{matroid}(B)."""
    if not (p.matroid.is_independent(b) and p.quotient.is_spanning(b)):
        raise DomainError(
            f"{p.ground.fmt(b)} is not independent-in-matroid and spanning-in-quotient"
        )
    internal, external = activities(p.quotient, p.matroid, b)
    return (b & ~internal) | external


def backward(p: Perspective, x: int) -> int:
    """B = X \\ min_basis((M|X)*) ∪ min_basis(M'/X).

    Scanning E in `<` order, e in X joins the dual basis while X minus the
    dual basis still spans X in M, and e outside X joins the basis of M'/X
    while it raises the M'-rank of X plus what was kept.
    """
    p.ground.check_subset(x)
    if not in_family(p, x):
        raise DomainError(f"{p.ground.fmt(x)} is not in the compatible family")
    rm, rq = p.matroid.ranks, p.quotient.ranks
    target = rm[x]
    rest = x
    span = x
    for e in p.ground.order:
        b = bit(e)
        if b & x:
            if rm[rest ^ b] == target:
                rest ^= b
        elif rq[span | b] > rq[span]:
            span |= b
    return rest | (span ^ x)


def bijection_table(p: Perspective) -> list:
    """Rows for every valid B, sorted by (size, lex)."""
    full = p.matroid.rank()
    rows = []
    for b, internal, external in sorted(valid_sets_with_activities(p.quotient, p.matroid),
                                        key=lambda row: p.ground.size_lex_key(row[0])):
        x = (b & ~internal) | external
        assert internal & ~b == 0 and external & b == 0
        rows.append(
            BijectionRow(
                b=b,
                internal=internal,
                external=external,
                x=x,
                monomial=(internal.bit_count(), external.bit_count(), full - b.bit_count()),
            )
        )
    return rows
