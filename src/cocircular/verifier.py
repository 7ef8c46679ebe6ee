"""Residual checks for the centered co-circular equations.

A mass vector with angles on the unit circle is a centered co-circular
central configuration when three residual groups vanish: the tangential
force balance, the spread of the radial sums around a common value, and
the center of mass. ``verify_cc`` evaluates them from angles; the tests
check it against the planar-position oracle in ``tests/oracle.py``.

``verify_cc`` checks its inputs first and then takes du, ru, sin(du) and
r**-(alpha + 2) from ``potential._frame``, which reuses this thread's
pair workspace when its key is these angles and this alpha (a converged
solve's or the last check's) and builds all four there otherwise. The
tangential pair terms and the radial powers fill the two scratch buffers
the gradient leaves free, and the tangential and then the radial matrix
take its one n x n mirror target in turn, each feeding one
matrix-vector product with the masses. The arithmetic is that of the
full-matrix formulas, so every float keeps its bits, hit or miss. After
a solve at the same n, a call allocates no pair buffer, and at the
solve's minimizer and alpha it builds no chords.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError
from .geometry import AngleConfiguration, MassVector, _mirror, _tolerance, center_of_mass
from .potential import _check_alpha, _check_finite, _frame, _pow


@dataclass(frozen=True, eq=False)
class CCReport:
    """Residuals of the three central-configuration equation groups.

    tangential_residual : max_k |sum_{j != k} m_j sin(t_j - t_k) / r_jk**(alpha + 2)|
    radial_spread       : max_k - min_k of sum_{j != k} m_j / r_jk**alpha
    center_norm         : |sum_j m_j q_j| / M
    lambda_tilde        : mean of the radial sums
    """

    tangential_residual: float
    radial_spread: float
    center_norm: float
    lambda_tilde: float
    is_cc: bool
    tolerance: float


def verify_cc(alpha: float, masses: MassVector, config: AngleConfiguration,
              tol: float = 1e-9) -> CCReport:
    """Check the central-configuration equations at given angles.

    At a genuine solution the radial sums share the common value
    lambda_tilde = 2 u_alpha / M, the tangential sums vanish, and the
    center of mass sits at the circle center.

    Residuals linear in the masses are compared against tol * M and the
    center norm against tol, so the verdict ignores m -> s m. An overflow
    raises ``UnsupportedExponent`` when a chord power overflowed, else
    ``DomainError``, with no numpy warning ahead of it.
    """
    alpha = _check_alpha(alpha)
    tol = _tolerance(tol, "tol")
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")
    m, n = masses.masses, masses.n
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _frame(config, alpha)
        ru, r_a2 = ws.chords[1], ws.r_a2
        upper, lower, full = ws.cc
        center = abs(center_of_mass(masses, config))
        # (j, k), j < k, holds sin(t_k - t_j) = -sin(du); (k, j) its negation
        np.negative(ws.sin, out=upper)
        upper *= r_a2
        tangential = _mirror(n, upper, np.negative(upper, out=lower), full) @ m
        # the tangential terms are dead, so the radial powers take their buffer
        radial = _pow(ru, -alpha, upper)
        radial_sums = _mirror(n, radial, radial, full) @ m
        tangential = float(np.max(np.abs(tangential)))
        spread = float(np.max(radial_sums) - np.min(radial_sums))
        lam = float(np.mean(radial_sums))
    _check_finite(alpha, (tangential, spread, lam, center), r_a2, radial)
    scaled = tol * masses.total_mass
    ok = tangential <= scaled and spread <= scaled and center <= tol
    return CCReport(tangential, spread, center, lam, bool(ok), tol)
