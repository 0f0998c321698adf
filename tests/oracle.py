"""Definition-literal oracle for the rank-table fast paths.

These functions answer the same questions as mptutte.activities,
mptutte.compatible, Matroid.from_circuits, its circuit-axiom check, the
Perspective check and the valid-set enumeration straight from the
definitions, scanning the circuit families of the matroid and its dual or
all subsets; rank_generating is the corank-nullity sum as the one loop
over the subsets that the whole-table tutte_rank_generating replaced, and
m0_expansion is the per-subset (x-1)-power loop that tutte_m0_expansion
replaced, on this module's circuit-scan is_compatible; fmt and
size_lex_key are the per-element loops that GroundSet's byte tables
replaced, and lex_sorted is the order compatible_family returns.  A
matroid's bases and circuits are read off its rank table, so the scans
that built the table and the families before it are kept here too
(greedy_ranks, circuits_from_bases, graph_bases, and the minor and dual
tables built from independence flags): test_construction checks the
tables, the bases and the circuits against them, and the oracle's other
scans then share no code with the lookups they check.  backward is
the bijection's inverse built from those flag tables, with each minimal
basis found by brute force instead of bijection's greedy rank lookups.
"""

from array import array
from itertools import combinations

from mptutte import AxiomError, Matroid, PerspectiveError, Poly, X, Y, bit


def brute_rank(m: Matroid, x: int) -> int:
    """r(X) as the largest intersection of X with a basis."""
    return max((b & x).bit_count() for b in m.bases)


def externally_active(m: Matroid, x: int) -> int:
    """Mask of elements of E \\ X that are `<`-minimal in a circuit of X + e."""
    m.ground.check_subset(x)
    active = 0
    circuits = m.circuits
    outside = m.ground.mask & ~x
    for e in m.ground.order:
        b = bit(e)
        if not b & outside:
            continue
        cover = x | b
        for c in circuits:
            if c & b and c & ~cover == 0 and m.ground.min_element(c) == e:
                active |= b
                break
    return active


def internally_active(m: Matroid, x: int) -> int:
    """Mask of elements of X that are `<`-minimal in a cocircuit of (E \\ X) + e."""
    m.ground.check_subset(x)
    active = 0
    cocircuits = m.dual().circuits
    complement = m.ground.mask & ~x
    for e in m.ground.order:
        b = bit(e)
        if not b & x:
            continue
        cover = complement | b
        for c in cocircuits:
            if c & b and c & ~cover == 0 and m.ground.min_element(c) == e:
                active |= b
                break
    return active


def is_compatible(m: Matroid, x: int) -> bool:
    """True iff no circuit C has X ∩ C = {min(C)}."""
    m.ground.check_subset(x)
    ground = m.ground
    for c in m.circuits:
        if x & c == bit(ground.min_element(c)):
            return False
    return True


def compatible_family(matroid: Matroid, quotient: Matroid) -> list:
    """D(M, M', <) by circuit scans, in increasing mask order: the X
    compatible with (M')* whose complement is compatible with M."""
    full, dual_q = matroid.ground.mask, quotient.dual()
    return [x for x in matroid.ground.subsets()
            if is_compatible(dual_q, x) and is_compatible(matroid, full ^ x)]


def check_perspective(matroid: Matroid, quotient: Matroid):
    """Raise PerspectiveError at the first circuit of `matroid` (in mask
    order) that is not a union of the `quotient`-circuits inside it."""
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


def bases_from_circuits(ground, circs) -> list:
    """The maximum-size subsets of the ground set containing no circuit."""
    best, best_size = [], -1
    for s in ground.subsets():
        if any(c & ~s == 0 for c in circs):
            continue
        size = s.bit_count()
        if size > best_size:
            best, best_size = [s], size
        elif size == best_size:
            best.append(s)
    return best


def valid_sets(p) -> list:
    """Every subset independent in the matroid and spanning in the quotient,
    by brute-force rank over all 2^n subsets, sorted by size then lex."""
    full = brute_rank(p.quotient, p.ground.mask)
    out = [s for s in p.ground.subsets()
           if brute_rank(p.matroid, s) == s.bit_count() and brute_rank(p.quotient, s) == full]
    return sorted(out, key=p.ground.size_lex_key)


def check_circuit_axioms(ground, circs):
    """Raise AxiomError at the first violation, scanning the whole family for
    each elimination (the circuit-axiom check Matroid.from_circuits made
    before it looked eliminations up in the dependent-set closure)."""
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
            if not any(c & ~union == 0 for c in circs):
                raise AxiomError(
                    "circuit elimination fails: no circuit inside "
                    f"{fmt(union)} (from {fmt(c1)}, {fmt(c2)} dropping {e.bit_length()})"
                )


def independent_flags(n: int, bases) -> int:
    """The 2^n-bit int with bit S set for every subset S of some basis."""
    flags = bytearray(max((1 << n) >> 3, 1))
    for b in bases:
        s = b
        while True:
            flags[s >> 3] |= 1 << (s & 7)
            if s == 0:
                break
            s = (s - 1) & b
    return int.from_bytes(flags, "little")


def greedy_ranks(n: int, independent: int) -> bytes:
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


def restricted_ranks(m: Matroid, x: int) -> bytes:
    """The rank table of M|X as it was built before minors were read off
    M's table: M's independence flags kept on the subsets of X, then the
    greedy pass."""
    n = x.bit_length()
    flags = independent_flags(m.ground.mask.bit_length(), m.bases) & independent_flags(n, [x])
    return greedy_ranks(n, flags)


def contracted_ranks(m: Matroid, x: int) -> bytes:
    """The rank table of M/X the same way: S is independent iff S + J is, for
    J a basis of X (a largest intersection of X with a basis of M), so M's
    flags are shifted down by J and kept on the subsets of E - X."""
    keep = m.ground.mask ^ x
    n = keep.bit_length()
    j = max((b & x for b in m.bases), key=int.bit_count)
    flags = independent_flags(m.ground.mask.bit_length(), m.bases) >> j
    return greedy_ranks(n, flags & independent_flags(n, [keep]))


def dual_ranks(m: Matroid, x: int | None = None) -> bytes:
    """The rank table of M*, whose bases are the complements of M's; or,
    given X, of (M|X)*, whose bases are the complements in X of the bases of
    M|X, the subsets S of X with |S| = r(S) = r(X) in restricted_ranks."""
    if x is None:
        x, bases = m.ground.mask, m.bases
    else:
        r = restricted_ranks(m, x)
        bases = [s for s in submasks(x) if s.bit_count() == r[s] == r[x]]
    n = x.bit_length()
    return greedy_ranks(n, independent_flags(n, [x ^ b for b in bases]))


def submasks(x: int) -> list:
    """Every subset of X, largest mask first."""
    out = [x]
    while out[-1]:
        out.append((out[-1] - 1) & x)
    return out


def min_basis(ranks: bytes, x: int, order) -> int:
    """The lexicographically least basis of the matroid on X with rank table
    `ranks`: of every S inside X with |S| = r(S) = r(X), the one whose
    elements, listed in `<` order, come first."""
    bases = [s for s in submasks(x) if s.bit_count() == ranks[s] == ranks[x]]
    return min(bases, key=lambda s: [i for i, e in enumerate(order) if s >> (e - 1) & 1])


def backward(p, x: int) -> int:
    """g(X) = X \\ min_basis((M|X)*) ∪ min_basis(M'/X), each minor's table
    built by the flag scans above and each minimal basis by brute force."""
    order = p.ground.order
    rest = p.ground.mask ^ x
    return x & ~min_basis(dual_ranks(p.matroid, x), x, order) | min_basis(
        contracted_ranks(p.quotient, x), rest, order)


def circuits_from_bases(ground, bases) -> tuple:
    """All circuits, sorted by mask value, from the basis family.

    Every circuit C is the unique circuit of B + e for any basis B
    extending C - e with e = some element of C, so collecting fundamental
    circuits {e} | {f in B : B - f + e is a basis} over all pairs
    (basis, e outside) yields the full family.
    """
    found = set()
    ground_mask = ground.mask
    in_bases = frozenset(bases)
    for b in bases:
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
    return tuple(sorted(found))


def graph_bases(g) -> list:
    """The spanning forests of a Multigraph as edge masks, in candidate order.

    With c connected components the rank is r = |V| - c, and an r-edge set
    is a basis exactly when it is acyclic.  All C(|E|, r) such sets are
    tested by an index union-find that stops at the first edge closing a
    cycle.
    """
    index = {v: k for k, v in enumerate(g.vertices)}
    ends = [(index[u], index[v]) for _, u, v in g.edges]
    masks = [bit(l) for l, _, _ in g.edges]
    roots = list(range(len(index)))
    r = len(roots) - len(_components(roots, ends))
    candidates = zip(combinations(ends, r), combinations(masks, r))  # in step
    return [sum(edges) for pairs, edges in candidates if _acyclic(roots, pairs)]


def _components(vertices, pairs) -> set:
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            v = parent[v]
        return v

    for u, v in pairs:
        parent[find(u)] = find(v)
    return {find(v) for v in vertices}


def _acyclic(roots: list, pairs) -> bool:
    """True iff the vertex-index pairs form a forest; the union-find starts
    from a copy of `roots` and stops at the first edge closing a cycle."""
    parent = roots.copy()
    for u, v in pairs:
        while parent[u] != u:
            u = parent[u]
        while parent[v] != v:
            v = parent[v]
        if u == v:
            return False
        parent[u] = v
    return True


def rank_generating(p) -> Poly:
    """Corank-nullity oracle: sum over every subset A of

        (x-1)^(r(M') - r_{M'}(A)) * (y-1)^(|A| - r_M(A)) * z^defect(A).

    The exponent triples are counted first; each distinct one is expanded once.
    """
    rm, rq = p.matroid.ranks, p.quotient.ranks
    full_m, full_q = p.matroid.rank(), p.quotient.rank()
    counts = {}
    for a in p.ground.subsets():
        defect = full_m - full_q - rm[a] + rq[a]
        if defect < 0:
            p.rank_defect(a)  # raises, naming A
        key = (full_q - rq[a], a.bit_count() - rm[a], defect)
        counts[key] = counts.get(key, 0) + 1
    xm1 = _powers(X - 1, full_q)
    ym1 = _powers(Y - 1, p.ground.size)
    total = Poly()
    for (i, j, k), count in counts.items():
        total = total + xm1[i] * ym1[j] * Poly.monomial(0, 0, k, count)
    return total


def m0_expansion(m: Matroid) -> Poly:
    """Alternate compatible-sets expansion of T_M(x, y), one subset at a time:

        sum over X with E \\ X compatible of (x-1)^r(M/X) y^r*(M|X).
    """
    r = m.rank()
    xm1 = _powers(X - 1, r)
    full = m.ground.mask
    total = Poly()
    for x in m.ground.subsets():
        if not is_compatible(m, full ^ x):
            continue
        rx = m.rank(x)
        total = total + xm1[r - rx] * Poly.monomial(0, x.bit_count() - rx, 0)
    return total


def _powers(base: Poly, up_to: int) -> list:
    out = [Poly.constant(1)]
    for _ in range(up_to):
        out.append(out[-1] * base)
    return out


def fmt(ground, x: int) -> str:
    """Render a mask as ``{1,3,5}``, or by its names (``{}`` when empty)."""
    return "{" + ",".join([ground.names[e - 1] for e in ground.labels(x)]) + "}"


def size_lex_key(ground, x: int) -> int:
    """Sort key giving ascending size, then lexicographic order: |X|, then
    one bit per element in `<` order, set when the element is not in X."""
    key = x.bit_count()
    for e in ground.order:
        key = (key << 1) | (not x >> (e - 1) & 1)
    return key


def lex_sorted(ground, family) -> list:
    """`family` sorted by the low ground.size bits of size_lex_key alone:
    where two sets first differ in `<`, the one holding that element first."""
    low = (1 << ground.size) - 1
    return sorted(family, key=lambda x: size_lex_key(ground, x) & low)
