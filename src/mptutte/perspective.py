"""Matroid perspectives: a matroid together with a quotient of it.

The pair (M, M') is a perspective when every circuit of M is a union of
circuits of M' (equivalently, the identity is a strong map and M' is a
quotient of M).  Construction validates this and fails loudly; there is no
unchecked escape hatch in the public surface.  The private
`Perspective._unchecked` skips the check for three callers whose pairs are
perspectives by theorem:

- `Perspective.reordered`: rank tables are indexed by mask, not by the order
  `<`, and neither form of the condition below mentions the order, so a
  checked pair stays a perspective under any order, with the same tables.
- `Perspective.dual`: if (M, M') is a perspective, so is (M'*, M*) (Las
  Vergnas 1980; Oxley, Matroid Theory, Sec. 7.3).
- `cli.document_perspective`, for a graph G and its identification G/~ (all
  commands but `check`): with F a forest of new edges joining each class and
  N = M(G + F), M(G) = N \\ F and M(G/~) = N / F, and a contraction is always
  a quotient of the deletion of the same set (Las Vergnas 1980; Oxley,
  Matroid Theory, Sec. 7.3).

The check runs on the rank tables: M' is a quotient of M iff every one-element
step gains at least as much rank in M as in M', r_M(X + e) - r_M(X) >=
r_M'(X + e) - r_M'(X) for all X and e (Las Vergnas 1980; Oxley, Matroid
Theory, Prop. 7.3.6).  In byte lanes 64 + r_M(X) - r_M'(X) that says the lanes
never fall from X to X + e, so the check is a fixed point: the max sweep of
the rank transform (matroid.lane_max) leaves the lanes unchanged.  The two
forms meet on circuits: a circuit C of M is a
union of M'-circuits iff each e in C lies in an M'-circuit inside C, i.e.
r_M'(C - e) = r_M'(C).  So a failing pair is reported by the first circuit of
M, in mask order, with an e where r_M'(C - e) < r_M'(C): the circuit that the
circuit-union scan names.
"""

from .activities import activity_classes
from .errors import DomainError, PerspectiveError
from .matroid import Matroid, lane_blocks, lane_max, lane_sweep
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

    @classmethod
    def _unchecked(cls, matroid: Matroid, quotient: Matroid) -> "Perspective":
        """The pair, not checked: only for pairs that are perspectives by
        theorem (see the module docstring)."""
        p = cls.__new__(cls)
        p.matroid, p.quotient = matroid, quotient
        return p

    @property
    def ground(self):
        return self.matroid.ground

    def dual(self) -> "Perspective":
        """The dual perspective (quotient*, matroid*); a perspective by
        theorem, so not checked again."""
        return Perspective._unchecked(self.quotient.dual(), self.matroid.dual())

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
        return Perspective._unchecked(self.matroid.reordered(ground), self.quotient.reordered(ground))

    def independent_spanning_sets(self) -> list:
        """All sets independent in `matroid` and spanning in `quotient`,
        sorted by size then lexicographically."""
        out = [b for _, _, bs in activity_classes(self.quotient, self.matroid, False) for b in bs]
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

    In byte lanes X = 64 + r_M(X) - r_M'(X), which hold 40..88, that says
    lane X + e >= lane X: the lanes are the rank transform's maxima already,
    so its max sweep leaves them unchanged.  A position missing from the
    ground set is a loop of both matroids, with equal lanes either side, so
    the sweep runs over every position.
    """
    n = len(matroid.ranks).bit_length() - 1
    lifted = matroid.ranks.translate(bytes(range(64, 256)) + bytes(64))  # v -> v + 64
    lanes = [m - q for m, q in zip(lane_blocks(lifted), lane_blocks(quotient.ranks))]
    return lane_sweep(lanes.copy(), n, lane_max(n)) == lanes
