"""Matroids stored as their rank tables, built once at construction.

A matroid is its ground set and its rank table ``Matroid.ranks``: a
``bytes`` object holding r(X) at index X, where n is the bit length of the
ground mask, so every rank question is one lookup.  Positions missing from a
gapped ground set are loops.  The bases and circuits are read off the table
when first asked for; minors and duals are new tables computed from it by
index arithmetic (Oxley, Matroid Theory, 2.1 and 3.1):
r_{M|X}(S) = r(S), r_{M/X}(S) = r(S + X) - r(X) and
r*(S) = |S| - r(E) + r(E - S).

Every input is built into its table first and checked there.  Bases and
circuits first become independence flags, one byte lane per subset: the
upward closure of the complements E - B of the bases, read in reverse (S is
independent iff E - S contains some E - B), or the complement of the upward
closure of the circuits.  One max-plus zeta transform turns the flags into
the table.  A graph (graphic.cycle_matroid) is counted instead: the subsets
of S whose incidence columns sum to zero over GF(2) form S's cycle space, of
dimension |S| - r(S), so one additive zeta transform of their flags holds
2^(|S| - r(S)) - 1 in lane S, and a byte log gives r(S).  Each such
whole-table pass is one lane_sweep, upward only, with a step of two blocks:
the subset zeta transform of Bjorklund-Husfeldt-Kaski-Koivisto (FOCS 2008)
in blocks of 2^12 lanes.  Lanes are one byte wide, except a graph's counts:
2 bytes once its nullity |E| - r(E) passes 8, and 4 once it passes 16,
read off the number of its flags, 2^(|E| - r(E)) - 1.  A table takes
O(n 2^n) time and about 4 * 2^n bytes of peak memory, a graph's about
3 * 2^n; GroundSet keeps n at most 24.  The trivial matroids need no
flags: U_{k,n}, free (k = n) and rank 0 (k = 0), are the closed form
r(S) = min(|S|, k).

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
from operator import add, or_

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
        complements = lane_sweep(lane_blocks(_lanes_at(n, (((1 << n) - 1) ^ b for b in bases))), n, or_)
        independent = [f * 255 for f in lane_blocks(lane_table(complements, 1 << n)[::-1])]
        self.ground, self.ranks = ground, _rank_table(n, independent)
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
        m = cls._from_dependent(ground, _lanes_at(ground.mask.bit_length(), circs))
        _check_circuit_axioms(m, circs)
        m._circuits = tuple(circs)
        return m

    @classmethod
    def _from_dependent(cls, ground: GroundSet, flags: bytes) -> "Matroid":
        """The matroid whose dependent sets are the upward closure of the sets
        whose byte lanes in `flags` are 1 (the others 0); not validated."""
        n = ground.mask.bit_length()
        independent = [~(f * 255) for f in lane_sweep(lane_blocks(flags), n, or_)]
        return cls._from_table(ground, _rank_table(n, independent))

    @classmethod
    def _from_zero_sums(cls, ground: GroundSet, flags: bytes) -> "Matroid":
        """The binary matroid whose `flags` are 1 at each nonempty set whose
        columns sum to zero over GF(2), and 0 elsewhere; not validated.  The
        zero-sum subsets of S, the empty set included, are S's cycle space,
        of dimension |S| - r(S), so the additive sweep counts
        2^(|S| - r(S)) - 1 in lane S.  The flags hold 2^null(E) - 1 ones, so
        their count's bit length is the nullity |E| - r(E), and the lanes are
        1 byte while it is at most 8, 2 bytes to 16 and 4 beyond.  The
        bytes of 2^k - 1 are 0xFF, then 2^(k mod 8) - 1, then 0, so their
        logs sum to k.  The logs and the subtraction from |S| run block by
        block, each wide block freed as its ranks replace it; block k's
        sizes are the first block's plus the bit count of k."""
        n = ground.mask.bit_length()
        width = (1, 1, 2, 4)[(flags.count(1).bit_length() + 7) // 8]  # null(E)'s bytes, rounded up
        counts = lane_sweep(lane_blocks(flags, width), n, add, width=width)
        del flags
        lanes = min(1 << n, _BLOCK)
        sizes = int.from_bytes(subset_sizes(lanes), "little")
        ones = int.from_bytes(b"\x01" * lanes, "little")
        for k, f in enumerate(counts):
            logs = f.to_bytes(width * lanes, "little").translate(_LOG2)
            counts[k] = sizes + k.bit_count() * ones - sum(int.from_bytes(logs[j::width], "little")
                                                            for j in range(width))
        return cls._from_table(ground, lane_table(counts, 1 << n))

    @classmethod
    def _from_table(cls, ground: GroundSet, table: bytes) -> "Matroid":
        """The matroid whose rank table agrees with `table` on the subsets of
        the ground set; not validated.  The positions missing from a gapped
        ground set are made loops: every lane S that holds one is cleared,
        and an OR sweep over those positions then gives lane S the one
        gap-free lane below it, S less its gap positions."""
        n = ground.mask.bit_length()
        gaps = [i for i in range(n) if not ground.mask >> i & 1]
        if gaps:  # a contraction's table can end early, in lanes that hold gaps
            kept = int.from_bytes(table[:1 << n], "little") & _lanes_equal(subset_sizes(1 << n, ~ground.mask), 0)
            table = lane_table(lane_sweep(lane_blocks(kept.to_bytes(1 << n, "little")), n, or_, gaps), 1 << n)
        m = cls.__new__(cls)
        m.ground, m.ranks = ground, table[:1 << n]
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
            bases = _lanes_equal(self._slack(), 0) & _lanes_equal(self.ranks, self.rank())
            self._bases = _members(bases.to_bytes(len(self.ranks), "little"))
        return self._bases

    @property
    def circuits(self) -> tuple:
        """All circuits, sorted by mask value: the dependent S with no
        dependent S - i, by one lane sweep clearing lane S where lane S - i
        is still set.  A cleared S - i holds a dependent S - i - j for a j
        done earlier, so S - j is dependent and S was cleared already.
        Cached."""
        if self._circuits is None:
            n = self.ground.mask.bit_length()
            dependent = lane_blocks(self._slack().translate(b"\0" + b"\xff" * 255))
            minimal = lane_table(lane_sweep(dependent, n, lambda f, g: f & ~g), 1 << n)
            # leave out the loops at positions missing from the ground set
            self._circuits = tuple(c for c in _members(minimal) if c & ~self.ground.mask == 0)
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

    def _slack(self) -> bytes:
        """|S| - r(S) at index S, which is 0 exactly on the independent sets."""
        size = len(self.ranks)
        slack = int.from_bytes(subset_sizes(size), "little") - int.from_bytes(self.ranks, "little")
        return slack.to_bytes(size, "little")

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


_BLOCK = 1 << 12  # lanes per int in a lane sweep: 4 KB of byte lanes, which stays in cache


def widen(table, width: int) -> bytes:
    """The bytes of `table` as little-endian lanes of `width` bytes (1, 2 or
    4): UTF-16-LE and UTF-32-LE write code point b as byte b and one or three
    zero bytes."""
    return table if width == 1 else table.decode("latin-1").encode(f"utf-{8 * width}-le")


def lane_blocks(table, width: int = 1) -> list:
    """The bytes of `table` as ints of at most _BLOCK lanes each, every lane
    widened to `width` bytes one block at a time."""
    return [int.from_bytes(widen(table[k:k + _BLOCK], width), "little")
            for k in range(0, len(table), _BLOCK)]


def lane_table(blocks: list, size: int) -> bytes:
    """The `size` byte lanes held by `blocks`: lane_blocks undone."""
    return b"".join(f.to_bytes(min(size, _BLOCK), "little") for f in blocks)


def lane_sweep(blocks: list, n: int, step, positions=None, width: int = 1) -> list:
    """The butterfly of the subset zeta transform (Bjorklund-Husfeldt-Kaski-
    Koivisto, FOCS 2008) on the 2^n lanes of `width` bytes in `blocks`, in
    place: for each element position i in `positions` (all n by default),
    each block f becomes step(f, g), where g holds lane S - 2^i at each lane S
    with i and 0 elsewhere, so a step must keep f's lanes where g is 0.  The
    passes commute, so below the block size all positions run on one block (a
    mask and a shift each) before the next, while it is in cache; above it, f
    is a whole block of sets with i and g the aligned block of their
    partners."""
    block = min(1 << n, _BLOCK)
    size = block * width  # bytes per block
    positions = range(n) if positions is None else positions
    inner = [(int.from_bytes((b"\xff" * h + bytes(h)) * (size // (2 * h)), "little"), 8 * h)
             for h in (width << i for i in positions) if h < size]
    for k, f in enumerate(blocks):
        for w, s in inner:
            f = step(f, (f & w) << s)
        blocks[k] = f
    for stride in [(1 << i) // block for i in positions if 1 << i >= block]:
        for lo in (k for k in range(len(blocks)) if not k & stride):
            blocks[lo + stride] = step(blocks[lo + stride], blocks[lo])
    return blocks


_HIGH = int.from_bytes(b"\x80" * _BLOCK, "little")


def lane_max(n: int):
    """The step of a max sweep over 2^n byte lanes: the lane-wise maximum of
    two blocks whose lanes hold 0..127.  Lane S of (f | 0x80 lanes) - g is
    128 + f(S) - g(S) with no borrow between lanes, and its bit 7 says
    whether f(S) >= g(S); spread to a 0xFF lane mask, it picks the maximum.
    _HIGH, shifted down to the lanes of one block, holds the 0x80 lanes, so
    no int the step makes is wider than the block.  (Under a smaller _BLOCK,
    as in tests, it keeps extra lanes, which pick 0 from both.)"""
    high = _HIGH >> 8 * (_BLOCK - min(1 << n, _BLOCK))

    def step(f: int, g: int) -> int:
        ge = (((f | high) - g) & high) >> 7
        return g ^ ((f ^ g) & ge * 255)
    return step


def _lanes_at(n: int, members) -> bytearray:
    """2^n byte lanes, 1 at each of the masks `members`."""
    lanes = bytearray(1 << n)
    for s in members:
        lanes[s] = 1
    return lanes


def _rank_table(n: int, independent: list) -> bytes:
    """Ranks of all 2^n masks from the independence flags (lane blocks, 0xFF
    on the independent sets), by the max-plus zeta transform: f(S) = |S| on
    independent S and 0 elsewhere, then for each element h,
    f(S) = max(f(S), f(S - h)) on every S containing h, by lane_max on lanes
    that hold 0..24."""
    for k, s in enumerate(lane_blocks(subset_sizes(1 << n))):
        independent[k] &= s
    return lane_table(lane_sweep(independent, n, lane_max(n)), 1 << n)


_PLUS_ONE = bytes(range(1, 256)) + b"\x00"  # v -> v + 1 mod 256
_LOG2 = bytes((v + 1).bit_length() - 1 for v in range(256))  # 2^k - 1 -> k


def subset_sizes(size: int, mask: int = -1) -> bytes:
    """|S & mask| at index S for each of `size` subsets, by doubling."""
    sizes = b"\x00"
    while len(sizes) < size:
        sizes += sizes.translate(_PLUS_ONE) if mask & len(sizes) else sizes
    return sizes


def _lanes_equal(table: bytes, value: int) -> int:
    """Byte lanes, 0xFF at each S where table[S] == value."""
    return int.from_bytes(table.translate(bytes(value) + b"\xff" + bytes(255 - value)), "little")


def _members(lanes: bytes) -> tuple:
    """The indices of the 0xFF lanes, ascending."""
    return tuple(m.start() for m in re.finditer(b"\xff", lanes))


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
