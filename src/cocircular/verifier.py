"""Residual checks for the centered co-circular equations.

A mass vector with angles on the unit circle is a centered co-circular
central configuration when three residual groups vanish: the tangential
force balance, the spread of the radial sums around a common value, and
the center of mass. ``verify_cc`` evaluates them from angles; the tests
check it against the planar-position oracle in ``tests/oracle.py``.

``verify_cc`` checks its inputs first and then takes the residual sums
from the pair frame ``potential._frame`` returns, reused from this
thread's workspace when it holds these angles and this alpha (a converged
solve's or the last check's), with the full-matrix formulas' bits either way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import AngleConfiguration, MassVector, _check_lengths, _tolerance, center_of_mass
from .potential import _cc_residuals, _check_alpha, _check_finite, _frame


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
    _check_lengths(masses, config)
    with np.errstate(over="ignore", invalid="ignore"):
        tangential, spread, lam = _cc_residuals(alpha, masses.masses, _frame(config, alpha))
        center = abs(center_of_mass(masses, config))
    # no power feeds the center, so only the masses can overflow it
    _check_finite(alpha, (center,))
    scaled = tol * masses.total_mass
    ok = tangential <= scaled and spread <= scaled and center <= tol
    return CCReport(tangential, spread, center, lam, bool(ok), tol)
