"""Definition-literal oracle for the rank-table fast paths.

These functions answer the same questions as mptutte.activities and
mptutte.compatible straight from the definitions, scanning the circuit
families of the matroid and its dual.  Those families are derived from the
bases without the rank table, so the oracle shares no code with the lookups
it checks.
"""

from mptutte import Matroid, bit


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
