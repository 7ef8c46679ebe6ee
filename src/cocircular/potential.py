"""Power-law pair energies on the circle and their exact derivatives.

For exponent beta != 0 the pair energy is

    u_beta(m, t) = sum_{j<k} m_j m_k / r_jk**beta,

with r_jk the chord length. The auxiliary functional adds a chord-squared
term,

    f(m, t) = u_alpha(m, t) + u_{-2}(m, t) / k,

whose angle Hessian has nonpositive off-diagonal entries and zero row sums
once k >= 2**(3 + alpha)/alpha. That makes the Hessian positive
semidefinite with kernel spanned by (1, ..., 1), so f has a unique
minimizer over the pinned angle domain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, KTooSmall, UnsupportedExponent
from .geometry import AngleConfiguration, MassVector, chord_matrix


def k_min(alpha: float) -> float:
    """Smallest admissible convexity constant, 2**(3 + alpha)/alpha."""
    try:
        return 2.0 ** (3.0 + alpha) / alpha
    except OverflowError:
        raise UnsupportedExponent(
            f"2**(3 + alpha)/alpha overflows at alpha = {alpha}") from None


def _check_alpha(alpha) -> float:
    """alpha as a float; UnsupportedExponent unless finite and positive."""
    if not (isinstance(alpha, (int, float)) and math.isfinite(alpha)):
        raise UnsupportedExponent("alpha must be a finite number")
    if alpha <= 0.0:
        raise UnsupportedExponent(f"alpha must be positive, got {alpha}")
    return float(alpha)


@dataclass(frozen=True)
class AuxiliaryFunctional:
    """Exponent alpha > 0 plus the convexity constant k.

    Omitting ``k`` picks the tight default 2**(3 + alpha)/alpha; anything
    below that threshold is rejected because it breaks the off-diagonal
    sign structure of the angle Hessian.
    """

    alpha: float
    k: float = None

    def __post_init__(self):
        object.__setattr__(self, "alpha", _check_alpha(self.alpha))
        threshold = k_min(self.alpha)
        if self.k is None:
            object.__setattr__(self, "k", threshold)
        elif not (self.k >= threshold):
            raise KTooSmall(f"k = {self.k} is below 2**(3 + alpha)/alpha = {threshold}")
        elif self.k == math.inf:
            raise DomainError("k must be finite")
        else:
            object.__setattr__(self, "k", float(self.k))


@dataclass(frozen=True, eq=False)
class PotentialReport:
    """Value and exact first/second derivatives at one (m, t) point."""

    value: float
    grad_theta: np.ndarray
    grad_mass: np.ndarray
    hessian_theta: np.ndarray


def _pow(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo with multiply chains for small integer exponents."""
    ei = int(round(expo))
    if expo == ei and 0 < abs(ei) <= 4:
        out = base
        for _ in range(abs(ei) - 1):
            out = out * base
        return 1.0 / out if ei < 0 else out
    return base ** expo


def _chords(config):
    """Validated chords of ``config`` with a safe diagonal of ones."""
    r = chord_matrix(config).r.copy()
    np.fill_diagonal(r, 1.0)
    return r


def _pair_frame(masses, config):
    """Pair frame of one point: masses, d[j, k] = t_j - t_k, and chords.

    Every quantity at the point derives from it, so each point's chords
    are built and validated once.
    """
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")
    return masses.masses, config.angles[:, None] - config.angles[None, :], _chords(config)


def _u_sums(m, r, *betas):
    """u_beta for each beta, over one upper-triangle gather of the frame."""
    j, k = np.triu_indices(m.size, 1)
    mm, rr = m[j] * m[k], r[j, k]
    return [float(np.sum(mm * _pow(rr, -float(beta)))) for beta in betas]


def _f_value(aux, m, r):
    u_alpha, u_chord = _u_sums(m, r, aux.alpha, -2.0)
    return u_alpha + u_chord / aux.k


def _grad_theta(aux, m, d, r_a2):
    """Angle gradient from the frame and r_a2 = r**-(alpha + 2)."""
    w = aux.alpha * r_a2 - 2.0 / aux.k
    np.fill_diagonal(w, 0.0)
    # sin(t_j - t_k) = -sin(d[k, j])
    return -(m * np.sum(m[None, :] * np.sin(d) * w, axis=1))


def _hessian_theta(aux, m, d, r_a2):
    """Angle Hessian from the frame and r_a2 = r**-(alpha + 2)."""
    a = aux.alpha
    c2 = np.cos(0.5 * d) ** 2
    off = (m[:, None] * m[None, :]) * (
        -a * (1.0 + a * c2) * r_a2 + (2.0 - 4.0 * c2) / aux.k
    )
    np.fill_diagonal(off, 0.0)
    h = 0.5 * (off + off.T)  # fold any residual asymmetry
    np.fill_diagonal(h, -np.sum(h, axis=1))
    return h


def _weights(aux, r):
    w = _pow(r, -aux.alpha) + (r * r) / aux.k
    np.fill_diagonal(w, 0.0)
    return w


def u_beta(beta: float, masses: MassVector, config: AngleConfiguration) -> float:
    """Pair energy sum_{j<k} m_j m_k r_jk**(-beta).

    beta = -2 gives the chord-squared sum sum m_j m_k (2 - 2 cos(t_j - t_k));
    beta = 0 (the logarithmic case) is out of scope.
    """
    if beta == 0:
        raise UnsupportedExponent("beta = 0 (logarithmic potential) is not supported")
    m, _, r = _pair_frame(masses, config)
    return _u_sums(m, r, beta)[0]


def f_k_value(aux: AuxiliaryFunctional, masses: MassVector,
              config: AngleConfiguration) -> float:
    """Auxiliary functional u_alpha + u_{-2}/k."""
    m, _, r = _pair_frame(masses, config)
    return _f_value(aux, m, r)


def grad_theta_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                   config: AngleConfiguration) -> np.ndarray:
    """Exact angle gradient of the auxiliary functional.

    Entry k is m_k sum_{j != k} m_j sin(t_j - t_k)
    (alpha / r_jk**(alpha + 2) - 2/k). Pair contributions are equal and
    opposite, so the entries sum to zero up to roundoff.
    """
    m, d, r = _pair_frame(masses, config)
    return _grad_theta(aux, m, d, _pow(r, -(aux.alpha + 2.0)))


def hessian_theta_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                      config: AngleConfiguration) -> np.ndarray:
    """Exact angle Hessian of the auxiliary functional.

    Off-diagonal entry (i, j) is

        m_i m_j [-alpha (1 + alpha cos^2((t_j - t_i)/2)) / r_ij**(alpha + 2)
                 + (2 - 4 cos^2((t_j - t_i)/2)) / k],

    and each diagonal entry is minus the sum of its row's off-diagonal
    entries, so rows sum to zero exactly. For k >= 2**(3 + alpha)/alpha
    every off-diagonal entry is <= 0.
    """
    m, d, r = _pair_frame(masses, config)
    return _hessian_theta(aux, m, d, _pow(r, -(aux.alpha + 2.0)))


def grad_mass_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                  config: AngleConfiguration) -> np.ndarray:
    """Mass gradient: entry k is sum_{j != k} m_j (r_jk**-alpha + r_jk**2/k)."""
    m, _, r = _pair_frame(masses, config)
    return _weights(aux, r) @ m


def pair_weight_matrix(aux: AuxiliaryFunctional,
                       config: AngleConfiguration) -> np.ndarray:
    """Matrix of pair weights r_jk**-alpha + r_jk**2/k with zero diagonal.

    This is the mass-space Hessian of the auxiliary functional: for any
    real vector y, y^T W y / 2 equals the functional evaluated with y in
    place of the masses.
    """
    return _weights(aux, _chords(config))


def potential_report(aux: AuxiliaryFunctional, masses: MassVector,
                     config: AngleConfiguration) -> PotentialReport:
    """Bundle value, both gradients, and the angle Hessian."""
    m, d, r = _pair_frame(masses, config)
    r_a2 = _pow(r, -(aux.alpha + 2.0))
    return PotentialReport(
        value=_f_value(aux, m, r),
        grad_theta=_grad_theta(aux, m, d, r_a2),
        grad_mass=_weights(aux, r) @ m,
        hessian_theta=_hessian_theta(aux, m, d, r_a2),
    )
