"""Matroids given by an explicit basis family, queried through a rank table.

The basis family is the canonical representation (sorted tuple of bitmasks);
circuits, the dual, and minors are derived from it.  Construction validates
the basis-exchange axiom exhaustively, which is O(|bases|^2 * n) and entirely
fine at the desk scale this package targets.  Internal constructions whose
correctness is a theorem (duals, minors) skip validation via the ``validate``
flag.

Every rank question (rank, independence, spanning, greedy bases) is one
lookup in ``Matroid.ranks``: a ``bytes`` table holding r(X) at index X, where
n is the bit length of the ground mask.  The table takes O(2^n) time and
5 * 2^n bytes of peak memory.  from_circuits builds it while constructing
(from the circuits' upward closure) and derives the bases from it; every
other matroid builds it from the bases on first use.  Tables above
``MAX_TABLE_ELEMENTS`` positions are refused with a DomainError instead of
exhausting memory; from_circuits and graphic.cycle_matroid, which enumerate
up to 2^n sets themselves, refuse such ground sets up front.

Loops and coloops are ordinary citizens: a rank-0 matroid is
``Matroid.from_bases(ground, [0])``, and from_circuits accepts singleton
circuits.
"""

from array import array
from itertools import combinations

from .errors import AxiomError, DomainError
from .setcore import GroundSet, bit

MAX_TABLE_ELEMENTS = 24


class Matroid:
    """A matroid on a :class:`GroundSet`, stored by its bases and queried
    through its rank table."""

    __slots__ = ("ground", "bases", "_bases_set", "_circuits", "_dual", "_ranks")

    def __init__(self, ground: GroundSet, bases, validate: bool = True):
        seen = set()
        for b in bases:
            ground.check_subset(b)
            seen.add(b)
        if not seen:
            raise AxiomError("a matroid needs at least one basis")
        self.ground = ground
        self.bases = tuple(sorted(seen))
        self._bases_set = frozenset(seen)
        self._circuits = None
        self._dual = None
        self._ranks = None
        if validate:
            self._check_exchange()

    # -- construction ------------------------------------------------------

    @classmethod
    def from_bases(cls, ground: GroundSet, bases, validate: bool = True) -> "Matroid":
        """Matroid from an explicit basis family; checks the exchange axiom."""
        return cls(ground, bases, validate=validate)

    @classmethod
    def from_circuits(cls, ground: GroundSet, circuits, validate: bool = True) -> "Matroid":
        """Matroid from its circuit family.

        The circuits' upward closure is the family of dependent sets; the
        validation checks that the family is an antichain satisfying circuit
        elimination, each elimination by one lookup in that closure.  The
        independent sets are its complement; one greedy pass gives the rank
        table, which is kept, and the bases are the r(E)-sets whose rank is
        their size.  An empty family gives the free matroid.  Ground sets too
        large for a rank table are refused before anything is enumerated.
        """
        n = ground.mask.bit_length()
        check_table_size(n)
        circs = sorted({ground.check_subset(c) for c in circuits})
        # positions outside the ground set are loops, as in _rank_table
        loops = [1 << i for i in range(n) if not ground.mask >> i & 1]
        dependent = _closure(n, circs + loops, up=True)
        if validate:
            flags = dependent.to_bytes(max((1 << n) >> 3, 1), "little")
            _check_circuit_axioms(ground, circs, flags)
        ranks = _greedy_ranks(n, dependent ^ ((1 << (1 << n)) - 1))
        r = ranks[ground.mask]
        bases = [s for s in map(sum, combinations(map(bit, ground.order), r)) if ranks[s] == r]
        m = cls(ground, bases, validate=False)
        m._circuits = tuple(circs)
        m._ranks = ranks
        return m

    def reordered(self, ground: GroundSet) -> "Matroid":
        """The same matroid under another order of its ground set.  Bases,
        circuits and the rank table are indexed by mask, so all carry over."""
        m = Matroid(ground, self.bases, validate=False)
        m._circuits = self._circuits
        m._ranks = self.ranks
        return m

    # -- basic oracles -----------------------------------------------------

    @property
    def size(self) -> int:
        return self.ground.size

    @property
    def ranks(self) -> bytes:
        """r(X) at index X for every subset X; built on first use, then cached."""
        if self._ranks is None:
            self._ranks = _rank_table(self.ground.mask.bit_length(), self.bases)
        return self._ranks

    def rank(self, x: int | None = None) -> int:
        """Rank of a subset (of the whole ground set when omitted)."""
        if x is None:
            return self.bases[0].bit_count()
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
    def circuits(self) -> tuple:
        """All circuits, sorted by mask value.  Computed once and cached.

        Every circuit C is the unique circuit of B + e for any basis B
        extending C - e with e = some element of C, so collecting fundamental
        circuits {e} | {f in B : B - f + e is a basis} over all pairs
        (basis, e outside) yields the full family.
        """
        if self._circuits is None:
            found = set()
            ground_mask = self.ground.mask
            in_bases = self._bases_set
            for b in self.bases:
                outside = ground_mask & ~b
                while outside:
                    low = outside & -outside
                    outside ^= low
                    circ = low
                    rest = b
                    while rest:
                        f = rest & -rest
                        rest ^= f
                        if (b ^ f) | low in in_bases:
                            circ |= f
                    found.add(circ)
            self._circuits = tuple(sorted(found))
        return self._circuits

    def dual(self) -> "Matroid":
        """The dual matroid: bases are the complements of bases.  Cached."""
        if self._dual is None:
            full = self.ground.mask
            d = Matroid(self.ground, [full ^ b for b in self.bases], validate=False)
            d._dual = self
            self._dual = d
        return self._dual

    def restrict(self, x: int) -> "Matroid":
        """M|X on ground set X, original labels and order."""
        self.ground.check_subset(x)
        sub = GroundSet.from_order(e for e in self.ground.order if bit(e) & x)
        r = self.rank(x)
        return Matroid(sub, {b & x for b in self.bases if (b & x).bit_count() == r},
                       validate=False)

    def contract(self, x: int) -> "Matroid":
        """M/X on ground set E \\ X, original labels and order."""
        self.ground.check_subset(x)
        keep = self.ground.mask ^ x
        sub = GroundSet.from_order(e for e in self.ground.order if bit(e) & keep)
        bx = self._max_independent_within(x)
        return Matroid(sub, {b & keep for b in self.bases if b & bx == bx},
                       validate=False)

    def min_basis(self) -> int:
        """Lexicographically least basis under the ground order, greedily.

        Scanning elements in ``<`` order and keeping those that preserve
        independence is the classic matroid greedy; tests check it against
        the brute-force lexicographic minimum.
        """
        return self._max_independent_within(self.ground.mask)

    def _max_independent_within(self, x: int) -> int:
        """The greedy (lexicographically least) basis of X."""
        ranks = self.ranks
        kept = 0
        for e in self.ground.order:
            b = bit(e)
            if b & x and ranks[kept | b] > ranks[kept]:
                kept |= b
        return kept

    # -- plumbing ----------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, Matroid)
            and self.ground == other.ground
            and self._bases_set == other._bases_set
        )

    def __hash__(self):
        return hash((self.ground, self._bases_set))

    def __repr__(self):
        shown = ", ".join(self.ground.fmt(b) for b in self.bases[:4])
        more = "" if len(self.bases) <= 4 else f", ... ({len(self.bases)} bases)"
        return f"Matroid(rank {self.rank()} on {self.ground.fmt(self.ground.mask)}; bases {shown}{more})"

    def _check_exchange(self):
        fmt = self.ground.fmt
        sizes = {b.bit_count() for b in self.bases}
        if len(sizes) > 1:
            small = min(self.bases, key=int.bit_count)
            big = max(self.bases, key=int.bit_count)
            raise AxiomError(
                f"bases must share one cardinality; {fmt(small)} and {fmt(big)} differ"
            )
        for b1 in self.bases:
            for b2 in self.bases:
                only1 = b1 & ~b2
                rest = only1
                while rest:
                    e = rest & -rest
                    rest ^= e
                    swap_in = b2 & ~b1
                    ok = False
                    while swap_in:
                        f = swap_in & -swap_in
                        swap_in ^= f
                        if (b1 ^ e) | f in self._bases_set:
                            ok = True
                            break
                    if not ok:
                        raise AxiomError(
                            "basis exchange fails: no replacement for element "
                            f"{e.bit_length()} of {fmt(b1)} against {fmt(b2)}"
                        )


def check_table_size(n: int):
    """Raise DomainError if a rank table over n positions exceeds the limit.

    Callers that enumerate 2^n sets themselves call it before they start.
    """
    if n > MAX_TABLE_ELEMENTS:
        size = 1 << n
        raise DomainError(
            f"rank table over {n} elements needs 2^{n} = {size} entries "
            f"({5 * size >> 20} MiB while it is built); the limit is {MAX_TABLE_ELEMENTS} elements"
        )


def _rank_table(n: int, bases) -> bytes:
    """Ranks of all 2^n masks, from the bases, whose downward closure is the
    family of independent sets.  Elements absent from the ground set lie in no
    basis, so their masks simply repeat the ranks of the ground part."""
    check_table_size(n)
    return _greedy_ranks(n, _closure(n, bases, up=False))


def _closure(n: int, members, up: bool) -> int:
    """The 2^n-bit int with bit S set for each S in the downward (or, when
    `up`, upward) closure of the masks `members`: one shift/OR pass per
    element, the subset zeta transform of Bjorklund-Husfeldt-Kaski-Koivisto
    (FOCS 2008)."""
    nbytes = max((1 << n) >> 3, 1)
    flags = bytearray(nbytes)
    for s in members:
        flags[s >> 3] |= 1 << (s & 7)
    family = int.from_bytes(flags, "little")
    for i in range(n):
        # bit S of `without` is set when element i is not in S
        run = 1 << i >> 3
        pattern = b"\xff" * run + bytes(run) if run else bytes([(0x55, 0x33, 0x0F)[i]])
        without = int.from_bytes(pattern * (nbytes // len(pattern)), "little")
        if up:
            family |= (family << (1 << i)) & (without << (1 << i))
        else:
            family |= (family >> (1 << i)) & without
    return family


def _greedy_ranks(n: int, independent: int) -> bytes:
    """Ranks of all 2^n masks from the independence flags (bit S set when S is
    independent), by one greedy pass in increasing mask order: with h the
    highest element of S, a basis J(S) of S is J(S - h) + h when that set is
    independent and J(S - h) otherwise, and r(S) = |J(S)|."""
    size = 1 << n
    flags = independent.to_bytes(max(size >> 3, 1), "little")
    ranks = bytearray(size)
    greedy = array("I", [0]) * size
    for i in range(n):
        h = 1 << i
        ranks[h:h << 1] = ranks[:h]
        greedy[h:h << 1] = greedy[:h]
        for s in range(h):
            j = greedy[s] | h
            if flags[j >> 3] >> (j & 7) & 1:
                greedy[h | s] = j
                ranks[h | s] += 1
    return bytes(ranks)


def _check_circuit_axioms(ground: GroundSet, circs, dependent: bytes):
    """Raise AxiomError unless `circs` (sorted masks) is a nonempty-set
    antichain with circuit elimination.  `dependent` holds bit S for each S
    containing some member, so "a circuit lies inside U" is one lookup."""
    fmt = ground.fmt
    for c in circs:
        if c == 0:
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
            if not dependent[union >> 3] >> (union & 7) & 1:
                raise AxiomError(
                    "circuit elimination fails: no circuit inside "
                    f"{fmt(union)} (from {fmt(c1)}, {fmt(c2)} dropping {e.bit_length()})"
                )


# -- small factories used throughout the tests and the corpus ---------------

def free_matroid(ground: GroundSet) -> Matroid:
    """Every subset independent: the single basis is E."""
    return Matroid(ground, [ground.mask], validate=False)


def rank_zero_matroid(ground: GroundSet) -> Matroid:
    """Every element a loop: the single basis is the empty set."""
    return Matroid(ground, [0], validate=False)


def uniform_matroid(k: int, ground: GroundSet) -> Matroid:
    """U_{k,n}: the bases are all k-subsets."""
    n = ground.size
    if not 0 <= k <= n:
        raise DomainError(f"uniform rank {k} out of range 0..{n}")
    bases = [sum(map(bit, combo)) for combo in combinations(ground.labels(ground.mask), k)]
    return Matroid(ground, bases, validate=False)
