"""Residual checks for the centered co-circular equations.

A mass vector with angles on the unit circle is a centered co-circular
central configuration when three residual groups vanish: the tangential
force balance, the spread of the radial sums around a common value, and
the center of mass. ``verify_cc`` evaluates them from angles;
``verify_definition_cc`` evaluates the same quantities straight from
planar positions as an independent cross-check.

``verify_cc`` checks its inputs first and then runs on this thread's pair
workspace (``potential._workspace``, shared with the Newton loop): the
chords, their two powers and the tangential pair terms fill its pair
buffers, and the tangential and then the radial matrix take its one
n x n mirror target in turn, each feeding one matrix-vector product with
the masses. The arithmetic is that of the full-matrix formulas, so every
float keeps its bits. After a solve at the same n, a call takes no
minor page faults.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CollisionError, DimensionError, DomainError
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


def _check_inputs(alpha, tol) -> float:
    """alpha as a float once it and the tolerance pass their checks."""
    alpha = _check_alpha(alpha)
    if not tol >= 0.0:
        raise DomainError(f"tol must be a nonnegative number, got {tol}")
    return alpha


def _report(alpha, tangential, radial, total_mass, center, tol, powers):
    """Assemble a CCReport from the two residual sums and the center norm.

    Entry k of ``tangential`` must hold sum_{j != k} m_j sin(t_j - t_k) /
    r_jk**(alpha + 2) and entry k of ``radial`` sum_{j != k} m_j
    r_jk**-alpha. Those residuals are linear in the masses and are
    compared against tol * M; the center norm is already divided by M and
    is compared against tol. The verdict is therefore unchanged under
    m -> s m. A residual that overflows raises ``UnsupportedExponent``
    when one of the chord ``powers`` did and ``DomainError`` when only the
    masses did.
    """
    tangential = float(np.max(np.abs(tangential)))
    spread = float(np.max(radial) - np.min(radial))
    lam = float(np.mean(radial))
    _check_finite(alpha, (tangential, spread, lam, center), *powers)
    scaled = tol * total_mass
    ok = tangential <= scaled and spread <= scaled and center <= tol
    return CCReport(tangential, spread, center, lam, bool(ok), tol)


def verify_cc(alpha: float, masses: MassVector, config: AngleConfiguration,
              tol: float = 1e-9) -> CCReport:
    """Check the central-configuration equations at given angles.

    At a genuine solution the radial sums share the common value
    lambda_tilde = 2 u_alpha / M, the tangential sums vanish, and the
    center of mass sits at the circle center.
    """
    alpha = _check_inputs(alpha, tol)
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")
    m, n = masses.masses, masses.n
    ws = _workspace(n)
    du, ru = _packed_chords(config, ws.chords)
    upper, lower, radial, full = ws.cc
    center = abs(center_of_mass(masses, config))
    # entry (j, k), j < k, holds sin(t_k - t_j) = -sin(du) and (k, j) its
    # negation; both matrices take the one mirror target in turn
    np.sin(du, out=upper)
    np.negative(upper, out=upper)
    r_a2 = _pow(ru, -(alpha + 2.0), ws.r_a2)
    upper *= r_a2
    tangential = _mirror(n, upper, np.negative(upper, out=lower), full) @ m
    radial = _pow(ru, -alpha, radial)
    radial_sums = _mirror(n, radial, radial, full) @ m
    return _report(alpha, tangential, radial_sums, masses.total_mass, center,
                   tol, (r_a2, radial))


def verify_definition_cc(alpha: float, masses: MassVector, positions,
                         tol: float = 1e-9) -> CCReport:
    """Check the same equations straight from planar positions.

    Positions must be finite and sit on the unit circle to within 1e-9;
    anything else raises ``DomainError``. The tangential
    and radial residuals are the imaginary and real parts of the planar
    force balance taken against each body's direction, so the report
    agrees with :func:`verify_cc` on matching inputs.
    """
    alpha = _check_inputs(alpha, tol)
    q = np.asarray(positions, dtype=complex)
    if q.ndim != 1 or q.size != masses.n:
        raise DimensionError(f"{masses.n} masses but {q.size} positions")
    # phrased so that a NaN position fails the check
    if not np.max(np.abs(np.abs(q) - 1.0)) <= 1e-9:
        raise DomainError("positions must lie on the unit circle (within 1e-9)")
    r = np.abs(q[:, None] - q[None, :])
    off = r[~np.eye(q.size, dtype=bool)]
    if not off.min() >= 1e-12:
        raise CollisionError("two positions coincide")
    np.fill_diagonal(r, 1.0)
    m = masses.masses
    sin_jk = np.imag(q[None, :] * np.conj(q)[:, None])
    center = abs(np.sum(m * q)) / masses.total_mass
    w_t = _pow(r, -(alpha + 2.0))
    np.fill_diagonal(w_t, 0.0)
    w_r = _pow(r, -alpha)
    np.fill_diagonal(w_r, 0.0)
    return _report(alpha, (sin_jk * w_t) @ m, w_r @ m, masses.total_mass,
                   center, tol, (w_t, w_r))
