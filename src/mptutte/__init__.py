"""Tutte polynomials of matroid perspectives.

Builds matroids from bases, circuits, or multigraphs, validates perspective
pairs (every circuit of the first matroid a union of circuits of the second),
and computes the trivariate Tutte polynomial three independent ways: the
activities expansion, the compatible-sets expansion, and a corank-nullity
oracle.  The explicit bijection between activity terms and compatible sets is
available as `forward` / `backward` / `bijection_table`.
"""

from .activities import externally_active, internally_active
from .bijection import BijectionRow, backward, bijection_table, forward
from .compatible import compatible_family, is_compatible
from .errors import (
    AxiomError,
    ConsistencyError,
    DomainError,
    ParseError,
    PerspectiveError,
)
from .graphic import Multigraph, cycle_matroid, identify_vertices
from .matroid import Matroid, free_matroid, rank_zero_matroid, uniform_matroid
from .perspective import Perspective, validate_perspective
from .polynomial import ONE, X, Y, Z, ZERO, Poly
from .setcore import GroundSet, bit
from .tutte import (
    specialize_m0,
    tutte_activities,
    tutte_bivariate_crapo,
    tutte_bivariate_kochol,
    tutte_compatible,
    tutte_m0_expansion,
    tutte_rank_generating,
)

__version__ = "0.1.0"

__all__ = [
    "AxiomError",
    "BijectionRow",
    "ConsistencyError",
    "DomainError",
    "GroundSet",
    "Matroid",
    "Multigraph",
    "ONE",
    "ParseError",
    "Perspective",
    "PerspectiveError",
    "Poly",
    "X",
    "Y",
    "Z",
    "ZERO",
    "backward",
    "bijection_table",
    "bit",
    "compatible_family",
    "cycle_matroid",
    "externally_active",
    "forward",
    "free_matroid",
    "identify_vertices",
    "internally_active",
    "is_compatible",
    "rank_zero_matroid",
    "specialize_m0",
    "tutte_activities",
    "tutte_bivariate_crapo",
    "tutte_bivariate_kochol",
    "tutte_compatible",
    "tutte_m0_expansion",
    "tutte_rank_generating",
    "uniform_matroid",
    "validate_perspective",
]
