"""Centered co-circular central configurations of power-law n-body problems.

The package minimizes a convex auxiliary functional over ordered angular
configurations on the unit circle, verifies the central-configuration
equations, excludes asymmetric mass vectors through dihedral symmetry
arguments, and maps the (n, alpha) region where a spectral condition
certifies the regular n-gon as the unique centered co-circular solution.
"""

from .errors import (
    CocircularError,
    CollisionError,
    ConvergenceFailure,
    DimensionError,
    DomainError,
    InvalidArity,
    KTooSmall,
    NoBracket,
    RegionNotClosed,
    UnsupportedExponent,
)
from .geometry import (
    COLLISION_TOL,
    TAU,
    AngleConfiguration,
    MassVector,
    center_of_mass,
    regular_ngon,
)
from .minimizer import MinimizeResult, minimize_f_k
from .potential import (
    AuxiliaryFunctional,
    grad_theta_f_k,
    k_min,
    pair_weight_matrix,
)
from .scanner import RegionCell, alpha_star, condition_threshold, g_value, scan_region
from .spectral import circulant_spectrum
from .symmetry import ExclusionVerdict, GroupElement, act_on_masses, exclusion_verdicts
from .verifier import CCReport, verify_cc

__version__ = "0.1.0"

__all__ = [
    "AngleConfiguration",
    "AuxiliaryFunctional",
    "CCReport",
    "CocircularError",
    "CollisionError",
    "ConvergenceFailure",
    "DimensionError",
    "DomainError",
    "ExclusionVerdict",
    "GroupElement",
    "InvalidArity",
    "KTooSmall",
    "MassVector",
    "MinimizeResult",
    "NoBracket",
    "RegionCell",
    "RegionNotClosed",
    "UnsupportedExponent",
    "COLLISION_TOL",
    "TAU",
    "act_on_masses",
    "alpha_star",
    "center_of_mass",
    "circulant_spectrum",
    "condition_threshold",
    "exclusion_verdicts",
    "g_value",
    "grad_theta_f_k",
    "k_min",
    "minimize_f_k",
    "pair_weight_matrix",
    "regular_ngon",
    "scan_region",
    "verify_cc",
]
