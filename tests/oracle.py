"""Definition-literal oracle for the rank-table fast paths.

These functions answer the same questions as mptutte.activities,
mptutte.compatible, Matroid.from_circuits, its circuit-axiom check, the
Perspective check and the valid-set enumeration straight from the
definitions, scanning the circuit families of the matroid and its dual or
all subsets.  Those families are derived from the bases without the rank
table, so the oracle shares no code with the lookups it checks.
"""

from itertools import combinations

from mptutte import AxiomError, Matroid, PerspectiveError, bit


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
