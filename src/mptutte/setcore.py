"""Ordered ground sets and bitmask subsets.

Elements are integer labels; a subset is an int with bit (label-1) set per
member.  Every set operation is therefore a machine-word bit operation, which
is what makes the exhaustive enumerations elsewhere in the package practical.
Ground sets larger than 30 elements are rejected up front: everything
downstream enumerates exponentially many subsets or bases, so refusing early
beats thrashing.

The total order ``<`` lives on the GroundSet (as the tuple of labels in
ascending order) and is threaded implicitly through every computation; no
operation takes an ad-hoc comparator.
"""

from .errors import DomainError

MAX_ELEMENTS = 30


def bit(label: int) -> int:
    """Bitmask of the single element `label`."""
    return 1 << (label - 1)


class GroundSet:
    """A finite set of integer labels with a total order.

    ``GroundSet(n)`` gives elements 1..n in natural order; pass ``order`` (a
    permutation of 1..n, smallest first) to change ``<``.  Minors use
    :meth:`from_order` to keep original labels with the inherited order.
    """

    __slots__ = ("order", "mask", "_pos")

    def __init__(self, n: int, order=None):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"ground set size must be a nonnegative integer, got {n!r}")
        if n > MAX_ELEMENTS:
            raise DomainError(
                f"ground set has {n} elements; the limit is {MAX_ELEMENTS} "
                "(subsets must fit a machine word and all algorithms enumerate subsets)"
            )
        if order is None:
            order = tuple(range(1, n + 1))
        else:
            order = tuple(order)
            if sorted(order) != list(range(1, n + 1)):
                raise DomainError(f"order {order!r} is not a permutation of 1..{n}")
        self.order = order
        self.mask = (1 << n) - 1
        self._pos = {e: i for i, e in enumerate(order)}

    @classmethod
    def from_order(cls, order) -> "GroundSet":
        """Ground set over arbitrary distinct labels, listed in ascending `<`."""
        order = tuple(order)
        if len(set(order)) != len(order):
            raise DomainError(f"duplicate labels in {order!r}")
        for e in order:
            if not isinstance(e, int) or not 1 <= e <= MAX_ELEMENTS:
                raise DomainError(f"label {e!r} outside 1..{MAX_ELEMENTS}")
        g = cls.__new__(cls)
        g.order = order
        g.mask = 0
        for e in order:
            g.mask |= bit(e)
        g._pos = {e: i for i, e in enumerate(order)}
        return g

    @property
    def size(self) -> int:
        return len(self.order)

    def __eq__(self, other):
        return isinstance(other, GroundSet) and self.order == other.order

    def __hash__(self):
        return hash(self.order)

    def __repr__(self):
        return f"GroundSet(order={self.order})"

    def check_subset(self, x: int) -> int:
        if x & ~self.mask:
            raise DomainError(
                f"subset {self.fmt(x & ~self.mask & ((1 << MAX_ELEMENTS) - 1))} "
                f"contains elements outside the ground set {self.fmt(self.mask)}"
            )
        return x

    def subset(self, labels) -> int:
        """Bitmask of an iterable of labels; rejects labels outside the ground set."""
        x = 0
        for e in labels:
            b = bit(e) if isinstance(e, int) and e >= 1 else 0
            if not b & self.mask:
                raise DomainError(f"element {e!r} is not in the ground set {self.fmt(self.mask)}")
            x |= b
        return x

    def labels(self, x: int) -> tuple:
        """Members of a mask as an ascending tuple of labels."""
        out = []
        while x:
            low = x & -x
            out.append(low.bit_length())
            x ^= low
        return tuple(out)

    def fmt(self, x: int) -> str:
        """Render a mask as ``{1,3,5}`` (``{}`` when empty)."""
        return "{" + ",".join(str(e) for e in self.labels(x)) + "}"

    def complement(self, x: int) -> int:
        """E \\ X."""
        return self.check_subset(x) ^ self.mask

    def min_element(self, x: int) -> int:
        """The `<`-least member of a nonempty subset."""
        self.check_subset(x)
        if not x:
            raise DomainError("min_element of the empty set")
        for e in self.order:
            if x & bit(e):
                return e
        raise AssertionError("unreachable")

    def lex_compare(self, a: int, b: int) -> int:
        """-1, 0 or 1 comparing equal-size subsets lexicographically.

        Sequences sorted by ``<`` first differ at the ``<``-least element of
        the symmetric difference, so one bit test decides.
        """
        self.check_subset(a)
        self.check_subset(b)
        if a.bit_count() != b.bit_count():
            raise DomainError(
                f"lex_compare needs equal-size subsets, got {self.fmt(a)} and {self.fmt(b)}"
            )
        diff = a ^ b
        if not diff:
            return 0
        return -1 if bit(self.min_element(diff)) & a else 1

    def lex_key(self, x: int) -> tuple:
        """Sort key: ascending order positions of the members.

        Tuples of equal length compare exactly like lex_compare; unequal
        lengths have no meaning here (sort by size first).
        """
        return tuple(sorted(self._pos[e] for e in self.labels(x)))

    def size_lex_key(self, x: int) -> int:
        """Sort key giving ascending size, then lexicographic order: |X|, then
        one bit per element in `<` order, set when the element is not in X."""
        key = x.bit_count()
        for e in self.order:
            key = (key << 1) | (not x >> (e - 1) & 1)
        return key

    def subsets(self):
        """All submasks of the ground set, in increasing numeric order."""
        m = self.mask
        s = 0
        while True:
            yield s
            if s == m:
                return
            s = (s - m) & m
