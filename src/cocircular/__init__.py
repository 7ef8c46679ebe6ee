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
    chord_matrix,
    regular_ngon,
)
from .minimizer import MinimizeResult, angles_from_reduced, minimize_f_k, reduced_coordinates
from .potential import (
    AuxiliaryFunctional,
    f_k_value,
    grad_mass_f_k,
    grad_theta_f_k,
    hessian_theta_f_k,
    k_min,
    pair_weight_matrix,
    u_beta,
)
from .scanner import RegionCell, alpha_star, condition_threshold, g_value, scan_region
from .spectral import (
    CriterionMatrix,
    CriterionVerdict,
    build_matrices,
    circulant_spectrum,
    criterion_verdict,
    taylor_identity_check,
)
from .symmetry import (
    ExclusionVerdict,
    GroupElement,
    act_on_angles,
    act_on_masses,
    exclusion_verdicts,
)
from .verifier import CCReport, verify_cc, verify_definition_cc

__version__ = "0.1.0"

__all__ = [
    "AngleConfiguration",
    "AuxiliaryFunctional",
    "CCReport",
    "CocircularError",
    "CollisionError",
    "ConvergenceFailure",
    "CriterionMatrix",
    "CriterionVerdict",
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
    "act_on_angles",
    "act_on_masses",
    "alpha_star",
    "angles_from_reduced",
    "build_matrices",
    "center_of_mass",
    "chord_matrix",
    "circulant_spectrum",
    "condition_threshold",
    "criterion_verdict",
    "exclusion_verdicts",
    "f_k_value",
    "g_value",
    "grad_mass_f_k",
    "grad_theta_f_k",
    "hessian_theta_f_k",
    "k_min",
    "minimize_f_k",
    "pair_weight_matrix",
    "reduced_coordinates",
    "regular_ngon",
    "scan_region",
    "taylor_identity_check",
    "u_beta",
    "verify_cc",
    "verify_definition_cc",
]
