"""Residual checks for the centered co-circular equations.

A mass vector with angles on the unit circle is a centered co-circular
central configuration when three residual groups vanish: the tangential
force balance, the spread of the radial sums around a common value, and
the center of mass. ``verify_cc`` evaluates them from angles; the tests
check it against the planar-position oracle in ``tests/oracle.py``.

``verify_cc`` checks its inputs first and then runs on this thread's pair
workspace (``potential._workspace``, shared with the Newton loop): the
chords, their two powers and the tangential pair terms fill its pair
buffers, and the tangential and then the radial matrix take its one
n x n mirror target in turn, each feeding one matrix-vector product with
the masses. The arithmetic is that of the full-matrix formulas, so every
float keeps its bits. After a solve at the same n, a call allocates no
pair buffer.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError
from .geometry import (AngleConfiguration, MassVector, _mirror, _packed_chords,
                       center_of_mass)
from .potential import _check_alpha, _check_finite, _pow, _workspace


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
    if not tol >= 0.0:
        raise DomainError(f"tol must be a nonnegative number, got {tol}")
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")
    m, n = masses.masses, masses.n
    ws = _workspace(n)
    with np.errstate(over="ignore", invalid="ignore"):
        du, ru = _packed_chords(config, ws.chords)
        upper, lower, radial, full = ws.cc
        center = abs(center_of_mass(masses, config))
        # (j, k), j < k, holds sin(t_k - t_j) = -sin(du); (k, j) its negation
        np.sin(du, out=upper)
        np.negative(upper, out=upper)
        r_a2 = _pow(ru, -(alpha + 2.0), ws.r_a2)
        upper *= r_a2
        tangential = _mirror(n, upper, np.negative(upper, out=lower), full) @ m
        radial = _pow(ru, -alpha, radial)
        radial_sums = _mirror(n, radial, radial, full) @ m
        tangential = float(np.max(np.abs(tangential)))
        spread = float(np.max(radial_sums) - np.min(radial_sums))
        lam = float(np.mean(radial_sums))
    _check_finite(alpha, (tangential, spread, lam, center), r_a2, radial)
    scaled = tol * masses.total_mass
    ok = tangential <= scaled and spread <= scaled and center <= tol
    return CCReport(tangential, spread, center, lam, bool(ok), tol)
