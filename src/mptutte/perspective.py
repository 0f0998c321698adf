"""Matroid perspectives: a matroid together with a quotient of it.

The pair (M, M') is a perspective when every circuit of M is a union of
circuits of M' (equivalently, the identity is a strong map and M' is a
quotient of M).  Construction validates this and fails loudly; there is no
unchecked escape hatch in the public surface.

The check runs on the rank tables: M' is a quotient of M iff every one-element
step gains at least as much rank in M as in M', r_M(X + e) - r_M(X) >=
r_M'(X + e) - r_M'(X) for all X and e (Las Vergnas 1980; Oxley, Matroid
Theory, Prop. 7.3.6).  The two forms meet on circuits: a circuit C of M is a
union of M'-circuits iff each e in C lies in an M'-circuit inside C, i.e.
r_M'(C - e) = r_M'(C).  So a failing pair is reported by the first circuit of
M, in mask order, with an e where r_M'(C - e) < r_M'(C): the circuit that the
circuit-union scan names.

Rank tables are indexed by mask, not by the order `<`, and neither form of
the condition mentions the order, so reordered keeps both tables and the
validation when it changes the order.
"""

from .activities import valid_sets_with_activities
from .errors import DomainError, PerspectiveError
from .matroid import Matroid, lanes_without
from .setcore import GroundSet, bit


def validate_perspective(matroid: Matroid, quotient: Matroid) -> bool:
    """True iff every circuit of `matroid` is a union of `quotient`-circuits."""
    try:
        Perspective(matroid, quotient)
    except PerspectiveError:
        return False
    return True


class Perspective:
    """A validated matroid perspective."""

    __slots__ = ("matroid", "quotient")

    def __init__(self, matroid: Matroid, quotient: Matroid):
        if matroid.ground != quotient.ground:
            raise DomainError(
                f"perspective needs one ground set; got {matroid.ground!r} and {quotient.ground!r}"
            )
        # every matroid has itself and its rank-0 matroid as quotients
        if (quotient.rank() and quotient.ranks != matroid.ranks
                and not _rank_steps_dominate(matroid, quotient)):
            rq = quotient.ranks
            for c in matroid.circuits:
                if any(rq[c & ~bit(e)] < rq[c] for e in matroid.ground.labels(c)):
                    raise PerspectiveError(
                        f"not a perspective: circuit {matroid.ground.fmt(c)} of the first "
                        "matroid is not a union of circuits of the second"
                    )
        self.matroid = matroid
        self.quotient = quotient

    @property
    def ground(self):
        return self.matroid.ground

    def dual(self) -> "Perspective":
        """The dual perspective (quotient*, matroid*); always valid again."""
        return Perspective(self.quotient.dual(), self.matroid.dual())

    def rank_defect(self, x: int) -> int:
        """r(M) - r(M') - (r_M(X) - r_{M'}(X)); the z exponent of X's term."""
        d = (self.matroid.rank() - self.quotient.rank()
             - self.matroid.rank(x) + self.quotient.rank(x))
        if d < 0:
            raise PerspectiveError(
                f"negative rank defect at {self.ground.fmt(x)}: invalid perspective slipped through"
            )
        return d

    def reordered(self, order) -> "Perspective":
        """The same pair under another order `<` of the ground set.  Rank
        tables are indexed by mask, not by order, so both carry over, and the
        quotient condition does not mention the order, so the pair is not
        checked again."""
        order = tuple(order)
        if len(order) != self.ground.size or set(order) != set(self.ground.order):
            raise DomainError(f"order {order!r} is not a permutation of the ground set "
                              f"{self.ground.fmt(self.ground.mask)}")
        ground = GroundSet.from_order(order, self.ground.names)
        p = Perspective.__new__(Perspective)
        p.matroid, p.quotient = self.matroid.reordered(ground), self.quotient.reordered(ground)
        return p

    def independent_spanning_sets(self) -> list:
        """All sets independent in `matroid` and spanning in `quotient`,
        sorted by size then lexicographically."""
        out = [b for b, _, _ in valid_sets_with_activities(self.quotient, self.matroid)]
        out.sort(key=self.ground.size_lex_key)
        return out

    def __eq__(self, other):
        return (
            isinstance(other, Perspective)
            and self.matroid == other.matroid
            and self.quotient == other.quotient
        )

    def __repr__(self):
        return f"Perspective({self.matroid!r}, {self.quotient!r})"


def _rank_steps_dominate(matroid: Matroid, quotient: Matroid) -> bool:
    """True iff r_M(X + e) - r_M(X) >= r_M'(X + e) - r_M'(X) for all X, e.

    Both tables are packed into one int with a byte lane per subset, lane
    X = 64 + r_M(X) - r_M'(X).  For e at bit h, (lanes >> h lanes) - lanes + 64
    holds, on every lane X without e, 64 plus the step difference: 63..65,
    with bit 6 set iff the condition holds at (X, e).  No carry or borrow
    reaches those lanes: every lane below size - h stays in 16..112, and the
    negative lanes above it all contain e.
    """
    size = len(matroid.ranks)
    bias = int.from_bytes(b"\x40" * size, "little")
    lanes = int.from_bytes(matroid.ranks, "little") + bias - int.from_bytes(quotient.ranks, "little")
    for e in matroid.ground.order:
        h = bit(e)
        if lanes_without(size, h, b"\x40") & ~((lanes >> (8 * h)) - lanes + bias):
            return False
    return True
