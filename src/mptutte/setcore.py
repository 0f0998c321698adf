"""Ordered ground sets and bitmask subsets.

Elements are integer labels; a subset is an int with bit (label-1) set per
member, so every set operation is a bit operation on ints.  Labels run up to
``MAX_ELEMENTS`` = 24, the one size limit of the package: every matroid holds
a rank table of 2^n bytes for a ground mask of bit length n, and everything
downstream enumerates exponentially many subsets or bases, so refusing early
beats thrashing.

The total order ``<`` lives on the GroundSet (as the tuple of labels in
ascending order) and is threaded implicitly through every computation; no
operation takes an ad-hoc comparator.

Commands print a set and take its size-lex key per output row, so both are
read from tables giving, for each byte of a mask and each of its 256 values,
its members' names and share of the key.  Each GroundSet builds its own, for
its order and names, on its first ``fmt`` or ``size_lex_key`` call.
"""

from .errors import DomainError

MAX_ELEMENTS = 24
NUMERALS = tuple(str(e) for e in range(1, MAX_ELEMENTS + 1))


def bit(label: int) -> int:
    """Bitmask of the single element `label`."""
    return 1 << (label - 1)


class GroundSet:
    """A finite set of integer labels with a total order.

    ``GroundSet(n)`` gives elements 1..n in natural order; pass ``order`` (a
    permutation of 1..n, smallest first) to change ``<``, and ``names`` (label
    e prints as names[e - 1]; equality ignores them) to print other than
    numerals.  Minors use :meth:`from_order` to keep labels and names.
    ``fmt`` and ``size_lex_key`` read per-byte tables built on first use.
    """

    __slots__ = ("order", "mask", "names", "_bytes")

    def __init__(self, n: int, order=None, names=None):
        if not isinstance(n, int) or n < 0:
            raise DomainError(f"ground set size must be a nonnegative integer, got {n!r}")
        if n > MAX_ELEMENTS:
            raise DomainError(f"ground set has {n} elements; the limit is {MAX_ELEMENTS}")
        if order is None:
            order = tuple(range(1, n + 1))
        else:
            order = tuple(order)
            if sorted(order) != list(range(1, n + 1)):
                raise DomainError(f"order {order!r} is not a permutation of 1..{n}")
        if names is None:
            names = NUMERALS
        elif len(names) != n:
            raise DomainError(f"{len(names)} names for {n} elements")
        self.order = order
        self.mask = (1 << n) - 1
        self.names = tuple(names)
        self._bytes = None

    @classmethod
    def from_order(cls, order, names=NUMERALS) -> "GroundSet":
        """Ground set over distinct labels listed in ascending `<`, named as in __init__."""
        order = tuple(order)
        if len(set(order)) != len(order):
            raise DomainError(f"duplicate labels in {order!r}")
        for e in order:
            if not isinstance(e, int) or not 1 <= e <= MAX_ELEMENTS:
                raise DomainError(f"label {e!r} outside 1..{MAX_ELEMENTS}")
        g = cls.__new__(cls)
        g.order = order
        g.names = names
        g._bytes = None
        g.mask = 0
        for e in order:
            g.mask |= bit(e)
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
            if x < 0:
                raise DomainError(f"subset mask {x} is negative")
            outside = self.labels(x & ~self.mask & ((1 << x.bit_length()) - 1))
            raise DomainError(
                f"subset {{{','.join(map(str, outside))}}} "  # unnamed: not in the ground set
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

    def _byte_tables(self) -> tuple:
        """(names, keys), three 256-entry tables each, indexed by one byte of
        a mask: its members' names, each followed by a comma (numerals when
        unnamed), and their share of size_lex_key, |members| << n less their
        order bits (the first table adds 2^n - 1)."""
        names = tuple(self.names) + NUMERALS[len(self.names):]
        n = self.size
        order_bit = {e: 1 << (n - 1 - i) for i, e in enumerate(self.order)}
        self._bytes = [[""], [""], [""]], [[(1 << n) - 1], [0], [0]]
        for e in range(1, MAX_ELEMENTS + 1):  # doubling: entry v + 2^bit is entry v, then e
            shown, keys = self._bytes[0][(e - 1) >> 3], self._bytes[1][(e - 1) >> 3]
            name, step = names[e - 1] + ",", (1 << n) - order_bit.get(e, 0)
            shown += [s + name for s in shown]
            keys += [k + step for k in keys]
        return self._bytes

    def fmt(self, x: int) -> str:
        """Render a mask as ``{1,3,5}``, or by its names (``{}`` when empty)."""
        t0, t1, t2 = (self._bytes or self._byte_tables())[0]
        return "{" + (t0[x & 255] + t1[x >> 8 & 255] + t2[x >> 16])[:-1] + "}"

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

    def size_lex_key(self, x: int) -> int:
        """Sort key giving ascending size, then lexicographic order: |X|, then
        one bit per element in `<` order, set when the element is not in X."""
        t0, t1, t2 = (self._bytes or self._byte_tables())[1]
        return t0[x & 255] + t1[x >> 8 & 255] + t2[x >> 16]

    def subsets(self):
        """All submasks of the ground set, in increasing numeric order."""
        return submasks(self.mask)


def submasks(m: int):
    """Every submask of the mask `m`, in increasing numeric order."""
    s = 0
    while True:
        yield s
        if s == m:
            return
        s = (s - m) & m
