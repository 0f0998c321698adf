"""Matroids stored as their rank tables, built once at construction.

A matroid is its ground set and its rank table ``Matroid.ranks``: a
``bytes`` object holding r(X) at index X, where n is the bit length of the
ground mask, so every rank question is one lookup.  Positions missing from a
gapped ground set are loops.  The bases and circuits are read off the table
when first asked for; minors and duals are new tables computed from it by
index arithmetic (Oxley, Matroid Theory, 2.1 and 3.1):
r_{M|X}(S) = r(S), r_{M/X}(S) = r(S + X) - r(X) and
r*(S) = |S| - r(E) + r(E - S).

Every input is built into its table first and checked there.  Bases,
circuits and graphs (graphic.cycle_matroid) first become independence
flags, an int with one byte lane per subset, 0xFF on the independent ones:
the downward closure of the bases, or the complement of the upward closure
of the circuits or of the cycle space.  One max-plus zeta transform turns
the flags into the table.  Closures and transform take one big-int pass per
element: the subset zeta transform of Bjorklund-Husfeldt-Kaski-Koivisto (FOCS
2008).  A table takes O(n 2^n) time and about 9 * 2^n bytes of peak memory;
GroundSet keeps n at most 24.  The trivial matroids need no flags: U_{k,n},
free (k = n) and rank 0 (k = 0), are the closed form r(S) = min(|S|, k).

Bases are then checked for basis exchange, O(|bases|^2 * n), and circuits
for the circuit axioms, each looking its sets up in the table: a k-set is a
given basis iff its rank is k, and a set holds a given circuit iff its rank
is below its size.  Duals, minors and graphs are matroids by theorem.  Loops
and coloops are ordinary citizens: a rank-0 matroid is
``Matroid.from_bases(ground, [0])``, and from_circuits accepts singleton
circuits.
"""

import re
from copy import copy
from itertools import combinations

from .errors import AxiomError, DomainError
from .setcore import GroundSet, bit


class Matroid:
    """A matroid on a :class:`GroundSet`, stored as its rank table."""

    __slots__ = ("ground", "ranks", "_bases", "_circuits", "_dual")

    def __init__(self, ground: GroundSet, bases, validate: bool = True):
        bases = tuple(sorted({ground.check_subset(b) for b in bases}))
        if not bases:
            raise AxiomError("a matroid needs at least one basis")
        n = ground.mask.bit_length()
        self.ground, self.ranks = ground, _rank_table(n, _closure(n, bases, up=False))
        self._bases, self._circuits, self._dual = bases, None, None
        if validate:
            _check_exchange(self, bases)

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bases(cls, ground: GroundSet, bases) -> "Matroid":
        """Matroid from an explicit basis family; checks the exchange axiom."""
        return cls(ground, bases)

    @classmethod
    def from_circuits(cls, ground: GroundSet, circuits) -> "Matroid":
        """Matroid from its circuit family, whose upward closure is the family
        of dependent sets; the validation looks up each circuit elimination
        in the table built from it.  An empty family gives the free matroid."""
        circs = sorted({ground.check_subset(c) for c in circuits})
        m = cls._from_dependent(ground, circs)
        _check_circuit_axioms(m, circs)
        m._circuits = tuple(circs)
        return m

    @classmethod
    def _from_dependent(cls, ground: GroundSet, members) -> "Matroid":
        """The matroid whose dependent sets are the upward closure of the
        masks `members`; not validated."""
        n = ground.mask.bit_length()
        return cls._from_table(ground, _rank_table(n, ~_closure(n, members, up=True)))

    @classmethod
    def _from_table(cls, ground: GroundSet, table: bytes) -> "Matroid":
        """The matroid whose rank table agrees with `table` on the subsets of
        the ground set; not validated.  Each position h missing from a gapped
        ground set is made a loop by one lane pass copying lane S - h to S."""
        size = 1 << ground.mask.bit_length()
        gaps = (size - 1) ^ ground.mask
        if gaps:
            lanes = int.from_bytes(table[:size], "little")
            while gaps:
                h = gaps & -gaps
                gaps ^= h
                lanes &= lanes_without(size, h, b"\xff")
                lanes |= lanes << 8 * h
            table = lanes.to_bytes(size, "little")
        m = cls.__new__(cls)
        m.ground, m.ranks = ground, table[:size]
        m._bases = m._circuits = m._dual = None
        return m

    def reordered(self, ground: GroundSet) -> "Matroid":
        """The same matroid under another order of its ground set.  The rank
        table, bases and circuits are indexed by mask, so all carry over."""
        m = copy(self)
        m.ground, m._dual = ground, None
        return m

    # -- basic oracles -----------------------------------------------------

    @property
    def size(self) -> int:
        return self.ground.size

    def rank(self, x: int | None = None) -> int:
        """Rank of a subset (of the whole ground set when omitted)."""
        if x is None:
            return self.ranks[self.ground.mask]
        self.ground.check_subset(x)
        return self.ranks[x]

    def is_independent(self, x: int) -> bool:
        """True iff some basis contains X, i.e. r(X) = |X|."""
        return self.rank(x) == x.bit_count()

    def is_spanning(self, x: int) -> bool:
        """True iff X has full rank."""
        return self.rank(x) == self.rank()

    # -- derived structure -------------------------------------------------

    @property
    def bases(self) -> tuple:
        """All bases, the independent sets of rank r(E), sorted by mask value."""
        if self._bases is None:
            bases = self._independent() & _lanes_equal(self.ranks, self.rank())
            self._bases = _members(bases, len(self.ranks))
        return self._bases

    @property
    def circuits(self) -> tuple:
        """All circuits, sorted by mask value: the dependent S with no
        dependent S - i, found by one shift pass over the flags.  Cached."""
        if self._circuits is None:
            n = self.ground.mask.bit_length()
            dependent = ~self._independent() & ((1 << (8 << n)) - 1)
            minimal = dependent
            for i in range(n):
                minimal &= ~((dependent & lanes_without(1 << n, 1 << i, b"\xff")) << (8 << i))
            # leave out the loops at positions missing from the ground set
            self._circuits = tuple(c for c in _members(minimal, 1 << n) if c & ~self.ground.mask == 0)
        return self._circuits

    def dual(self) -> "Matroid":
        """The dual matroid, r*(S) = |S| - r(E) + r(E - S).  Index S of the
        reversed table holds r(E - S), and every lane sum is at least r(E),
        so one subtraction on the packed lanes borrows from no neighbour.
        Cached."""
        if self._dual is None:
            size = len(self.ranks)
            lanes = (int.from_bytes(subset_sizes(size), "little")
                     + int.from_bytes(self.ranks[::-1], "little")
                     - self.rank() * int.from_bytes(b"\x01" * size, "little"))
            self._dual = Matroid._from_table(self.ground, lanes.to_bytes(size, "little"))
            self._dual._dual = self
        return self._dual

    def restrict(self, x: int) -> "Matroid":
        """M|X on ground set X, original labels and order: r(S) as in M."""
        self.ground.check_subset(x)
        return Matroid._from_table(self._minor_ground(x), self.ranks)

    def contract(self, x: int) -> "Matroid":
        """M/X on ground set E \\ X, original labels and order: index S of the
        table shifted down by X lanes holds r(S + X), less r(X) lane by lane."""
        self.ground.check_subset(x)
        r = self.ranks[x]
        less = bytes(range(256 - r, 256)) + bytes(range(256 - r))  # v -> v - r mod 256
        return Matroid._from_table(self._minor_ground(self.ground.mask ^ x), self.ranks[x:].translate(less))

    def _minor_ground(self, keep: int) -> GroundSet:
        return GroundSet.from_order((e for e in self.ground.order if bit(e) & keep), self.ground.names)

    def min_basis(self) -> int:
        """Lexicographically least basis under the ground order, greedily.

        Scanning elements in ``<`` order and keeping those that raise the
        rank is the classic matroid greedy; tests check it against the
        brute-force lexicographic minimum.
        """
        ranks = self.ranks
        kept = 0
        for e in self.ground.order:
            b = bit(e)
            if ranks[kept | b] > ranks[kept]:
                kept |= b
        return kept

    def _independent(self) -> int:
        """The independence flags: lane S is 0xFF where r(S) = |S|."""
        size = len(self.ranks)
        slack = int.from_bytes(subset_sizes(size), "little") - int.from_bytes(self.ranks, "little")
        return _lanes_equal(slack.to_bytes(size, "little"), 0)

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (isinstance(other, Matroid)
                and (self.ground, self.ranks) == (other.ground, other.ranks))

    def __hash__(self):
        return hash((self.ground, self.ranks))

    def __repr__(self):
        shown = ", ".join(self.ground.fmt(b) for b in self.bases[:4])
        more = "" if len(self.bases) <= 4 else f", ... ({len(self.bases)} bases)"
        return f"Matroid(rank {self.rank()} on {self.ground.fmt(self.ground.mask)}; bases {shown}{more})"


def lanes_without(size: int, h: int, fill: bytes) -> int:
    """`size` byte lanes, lane S holding `fill` when S & h == 0 and 0 otherwise."""
    return int.from_bytes((fill * h + bytes(h)) * (size // (2 * h)), "little")


def _closure(n: int, members, up: bool) -> int:
    """Byte lanes, 0xFF at each S in the downward (or, when `up`, upward)
    closure of the masks `members`, 2^n lanes: one shift/OR pass per
    element."""
    lanes = bytearray(1 << n)
    for s in members:
        lanes[s] = 0xFF
    family = int.from_bytes(lanes, "little")
    for i in range(n):
        without = lanes_without(1 << n, 1 << i, b"\xff")
        if up:
            family |= (family & without) << (8 << i)
        else:
            family |= (family >> (8 << i)) & without
    return family


def _rank_table(n: int, independent: int) -> bytes:
    """Ranks of all 2^n masks from the independence flags, by the max-plus
    zeta transform: f(S) = |S| on independent S and 0 elsewhere, then for
    each element h, f(S) = max(f(S), f(S - h)) on every S containing h.  Lane
    S of g = (f & lanes without h) << h lanes is f(S - h) there and 0
    elsewhere.  Lanes hold 0..24, so lane S of (f | 0x80 lanes) - g is
    128 + f(S) - g(S) with no borrow between lanes, and its bit 7 says
    whether f(S) >= g(S); spread to a 0xFF lane mask, it picks the maximum."""
    size = 1 << n
    f = int.from_bytes(subset_sizes(size), "little") & independent
    high = int.from_bytes(b"\x80" * size, "little")
    for i in range(n):
        g = (f & lanes_without(size, 1 << i, b"\xff")) << (8 << i)
        ge = (((f | high) - g) & high) >> 7
        f = g ^ ((f ^ g) & ((ge << 8) - ge))
    return f.to_bytes(size, "little")


def subset_sizes(size: int, mask: int = -1) -> bytes:
    """|S & mask| at index S for each of `size` subsets, by doubling."""
    sizes = b"\x00"
    while len(sizes) < size:
        sizes += sizes.translate(bytes(range(1, 256)) + b"\x00") if mask & len(sizes) else sizes
    return sizes


def _lanes_equal(table: bytes, value: int) -> int:
    """Byte lanes, 0xFF at each S where table[S] == value."""
    return int.from_bytes(table.translate(bytes(value) + b"\xff" + bytes(255 - value)), "little")


def _members(lanes: int, size: int) -> tuple:
    """The indices of the 0xFF lanes among `size` lanes, ascending."""
    return tuple(m.start() for m in re.finditer(b"\xff", lanes.to_bytes(size, "little")))


def _check_exchange(m: Matroid, bases: tuple):
    """Raise AxiomError unless the sorted family `bases`, from which m was
    built, shares one size and satisfies basis exchange, checked on every
    ordered pair.  Once all have size k, a k-set is a basis iff its rank is k."""
    fmt = m.ground.fmt
    if len({b.bit_count() for b in bases}) > 1:
        small, big = min(bases, key=int.bit_count), max(bases, key=int.bit_count)
        raise AxiomError(f"bases must share one cardinality; {fmt(small)} and {fmt(big)} differ")
    ranks, k = m.ranks, bases[0].bit_count()
    for b1 in bases:
        for b2 in bases:
            rest = b1 & ~b2
            while rest:
                e = rest & -rest
                rest ^= e
                swap_in = b2 & ~b1
                while swap_in:
                    f = swap_in & -swap_in
                    swap_in ^= f
                    if ranks[(b1 ^ e) | f] == k:
                        break
                else:
                    raise AxiomError(
                        "basis exchange fails: no replacement for element "
                        f"{m.ground.names[e.bit_length() - 1]} of {fmt(b1)} against {fmt(b2)}"
                    )


def _check_circuit_axioms(m: Matroid, circs):
    """Raise AxiomError unless `circs` (sorted masks), whose upward closure m
    was built from, is a nonempty-set antichain with circuit elimination.
    "A circuit lies inside U" is the one lookup r(U) < |U|."""
    fmt = m.ground.fmt
    if circs and circs[0] == 0:  # sorted, so the empty set comes first
        raise AxiomError("the empty set cannot be a circuit")
    for c1, c2 in combinations(circs, 2):
        if c1 & ~c2 == 0 or c2 & ~c1 == 0:
            raise AxiomError(f"circuits must form an antichain; {fmt(c1)} is inside {fmt(c2)}")
    for c1, c2 in combinations(circs, 2):
        common = c1 & c2
        while common:
            e = common & -common
            common ^= e
            union = (c1 | c2) ^ e
            if m.ranks[union] == union.bit_count():
                raise AxiomError(
                    "circuit elimination fails: no circuit inside "
                    f"{fmt(union)} (from {fmt(c1)}, {fmt(c2)} dropping {m.ground.names[e.bit_length() - 1]})"
                )


# -- small factories used throughout the tests and the corpus ---------------

def free_matroid(ground: GroundSet) -> Matroid:
    """Every subset independent: U_{n,n}."""
    return uniform_matroid(ground.size, ground)


def rank_zero_matroid(ground: GroundSet) -> Matroid:
    """Every element a loop: U_{0,n}."""
    return uniform_matroid(0, ground)


def uniform_matroid(k: int, ground: GroundSet) -> Matroid:
    """U_{k,n}, whose bases are all k-subsets, as the table r(S) = min(|S|, k)."""
    if not 0 <= k <= ground.size:
        raise DomainError(f"uniform rank {k} out of range 0..{ground.size}")
    sizes = subset_sizes(1 << ground.mask.bit_length())
    return Matroid._from_table(ground, sizes.translate(bytes(min(v, k) for v in range(256))))
