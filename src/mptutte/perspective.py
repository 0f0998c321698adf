"""Matroid perspectives: a matroid together with a quotient of it.

The pair (M, M') is a perspective when every circuit of M is a union of
circuits of M' (equivalently, the identity is a strong map and M' is a
quotient of M).  Construction validates this and fails loudly; there is no
unchecked escape hatch in the public surface.
"""

from .errors import DomainError, PerspectiveError
from .matroid import Matroid


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
        for c in matroid.circuits:
            covered = 0
            for cq in quotient.circuits:
                if cq & ~c == 0:
                    covered |= cq
            if covered != c:
                raise PerspectiveError(
                    f"not a perspective: circuit {matroid.ground.fmt(c)} of the first matroid "
                    "is not a union of circuits of the second"
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

    def independent_spanning_sets(self) -> list:
        """All sets independent in `matroid` and spanning in `quotient`,
        sorted by size then lexicographically."""
        rm, rq = self.matroid.ranks, self.quotient.ranks
        full = self.quotient.rank()
        out = [s for s in self.ground.subsets() if rm[s] == s.bit_count() and rq[s] == full]
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
