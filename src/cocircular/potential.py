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

Every quantity at one (m, t) point derives from one packed pair frame:
the masses, the differences du and the chords ru of the pairs j < k in
``np.triu_indices`` order (see ``geometry``). Values are sums over the
packed pairs. The gradient, the Hessian and W compute their pair terms
on the n(n - 1)/2 packed pairs only and mirror them into n x n matrices,
whose rows are then summed in the same order as the full-matrix
formulas, so every float keeps the bits those formulas give.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, KTooSmall, UnsupportedExponent
from .geometry import (AngleConfiguration, MassVector, _mirror, _packed_chords,
                       _pairs)


def k_min(alpha: float) -> float:
    """Smallest admissible convexity constant, 2**(3 + alpha)/alpha."""
    try:
        return 2.0 ** (3.0 + alpha) / alpha
    except OverflowError:
        raise UnsupportedExponent(
            f"2**(3 + alpha)/alpha overflows at alpha = {alpha}") from None


def _check_alpha(alpha) -> float:
    """alpha as a float; UnsupportedExponent unless finite and positive."""
    if not (isinstance(alpha, numbers.Real) and math.isfinite(alpha)):
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


def _pow(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo with multiply chains for small integer exponents."""
    ei = int(round(expo))
    if expo == ei and 0 < abs(ei) <= 4:
        out = base
        for _ in range(abs(ei) - 1):
            out = out * base
        return 1.0 / out if ei < 0 else out
    return base ** expo


def _check_finite(alpha, sums, *powers):
    """Refuse overflowed sums over the pairs.

    Raises ``UnsupportedExponent`` when one of the chord powers overflowed
    and ``DomainError`` when only the masses carried the sums past a double.
    """
    if all(math.isfinite(s) for s in sums):
        return
    if not all(np.isfinite(p).all() for p in powers):
        raise UnsupportedExponent(f"chord powers overflow at alpha = {alpha}")
    raise DomainError("the masses overflow a mass-weighted pair sum")


def _frame(masses, config):
    """Packed pair frame of one point: masses, du = t_j - t_k and chords ru.

    Every quantity at the point derives from it, so each point's chords
    are built and checked once.
    """
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")
    return (masses.masses, *_packed_chords(config))


def _mass_products(m):
    """Packed mass products m_j m_k, j < k."""
    j, k, _ = _pairs(m.size)
    return m[j] * m[k]


def _u_sums(mm, ru, *betas):
    """u_beta for each beta from packed mass products and chords."""
    return [float(np.sum(mm * _pow(ru, -float(beta)))) for beta in betas]


def _f_value(aux, mm, ru):
    u_alpha, u_chord = _u_sums(mm, ru, aux.alpha, -2.0)
    return u_alpha + u_chord / aux.k


def _grad_theta(aux, m, du, r_a2):
    """Angle gradient from the frame and packed r_a2 = ru**-(alpha + 2).

    Row j of the summand holds m_k sin(t_j - t_k) w_jk; below the
    diagonal sin(t_k - t_j) = -sin(du), so that half is mirrored negated.
    """
    j, k, _ = _pairs(m.size)
    s = np.sin(du)
    w = aux.alpha * r_a2 - 2.0 / aux.k
    upper = m[k] * s
    upper *= w
    lower = m[j] * s
    lower *= w
    np.negative(lower, out=lower)
    return -(m * np.sum(_mirror(m.size, upper, lower), axis=1))


def _hessian_theta(aux, n, mm, du, r_a2):
    """Angle Hessian from packed mass products, du and r_a2 = ru**-(alpha + 2)."""
    a = aux.alpha
    # in place, operation for operation as
    # mm * (-a * (1 + a * c2) * r_a2 + (2 - 4 * c2) / k) with c2 = cos(du/2)**2
    c2 = np.cos(0.5 * du)
    c2 *= c2
    off = a * c2
    off += 1.0
    off *= -a
    off *= r_a2
    c2 *= 4.0
    np.subtract(2.0, c2, out=c2)
    c2 /= aux.k
    off += c2
    off *= mm
    # cos is even and mm symmetric, so the mirror is exactly symmetric
    h = _mirror(n, off, off)
    np.fill_diagonal(h, -np.sum(h, axis=1))
    return h


def _pair_weights(aux, ru):
    """Pair weights r**-alpha + r**2/k of the chords ru."""
    return _pow(ru, -aux.alpha) + (ru * ru) / aux.k


def _weights(aux, n, ru):
    """Pair-weight matrix W from the packed chords."""
    w = _pair_weights(aux, ru)
    return _mirror(n, w, w)


def u_beta(beta: float, masses: MassVector, config: AngleConfiguration) -> float:
    """Pair energy sum_{j<k} m_j m_k r_jk**(-beta).

    beta = -2 gives the chord-squared sum sum m_j m_k (2 - 2 cos(t_j - t_k));
    beta = 0 (the logarithmic case) is out of scope.
    """
    if beta == 0:
        raise UnsupportedExponent("beta = 0 (logarithmic potential) is not supported")
    m, _, ru = _frame(masses, config)
    return _u_sums(_mass_products(m), ru, beta)[0]


def f_k_value(aux: AuxiliaryFunctional, masses: MassVector,
              config: AngleConfiguration) -> float:
    """Auxiliary functional u_alpha + u_{-2}/k."""
    m, _, ru = _frame(masses, config)
    return _f_value(aux, _mass_products(m), ru)


def grad_theta_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                   config: AngleConfiguration) -> np.ndarray:
    """Exact angle gradient of the auxiliary functional.

    Entry k is m_k sum_{j != k} m_j sin(t_j - t_k)
    (alpha / r_jk**(alpha + 2) - 2/k). Pair contributions are equal and
    opposite, so the entries sum to zero up to roundoff.
    """
    m, du, ru = _frame(masses, config)
    return _grad_theta(aux, m, du, _pow(ru, -(aux.alpha + 2.0)))


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
    m, du, ru = _frame(masses, config)
    return _hessian_theta(aux, m.size, _mass_products(m), du,
                          _pow(ru, -(aux.alpha + 2.0)))


def grad_mass_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                  config: AngleConfiguration) -> np.ndarray:
    """Mass gradient: entry k is sum_{j != k} m_j (r_jk**-alpha + r_jk**2/k)."""
    m, _, ru = _frame(masses, config)
    return _weights(aux, m.size, ru) @ m


def pair_weight_matrix(aux: AuxiliaryFunctional,
                       config: AngleConfiguration) -> np.ndarray:
    """Matrix of pair weights r_jk**-alpha + r_jk**2/k with zero diagonal.

    This is the mass-space Hessian of the auxiliary functional: for any
    real vector y, y^T W y / 2 equals the functional evaluated with y in
    place of the masses.
    """
    return _weights(aux, config.n, _packed_chords(config)[1])
