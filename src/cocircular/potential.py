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

The Newton loop and ``verify_cc`` evaluate into one ``_Workspace`` per
thread, kept for the last n evaluated there; the public functions here
return fresh arrays.
"""

from __future__ import annotations

import math
import numbers
import threading
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


def _pow(base: np.ndarray, expo: float, out=None) -> np.ndarray:
    """base**expo with multiply chains for small integer exponents.

    At expo 1 the result is ``base`` itself and ``out`` is left untouched.
    """
    ei = int(round(expo))
    if expo == ei and 0 < abs(ei) <= 4:
        p = base
        for _ in range(abs(ei) - 1):
            p = np.multiply(p, base, out=out)
        return np.divide(1.0, p, out=out) if ei < 0 else p
    # numpy's ** takes fast paths (sqrt at 0.5) that np.power does not
    return base ** expo if out is None else np.power(base, expo, out=out)


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


class _Workspace:
    """Buffers for the pair evaluations at one n.

    Nine pair buffers (the packed pair masses m_j, m_k and m_j m_k,
    r**-(alpha + 2), du and ru, and three scratch buffers that the chord
    gather, f, the gradient, the Hessian and the CC residuals take in
    turn) and one n x n mirror target: 9 n(n - 1)/2 + n^2 doubles. No
    buffer carries a value from one call to the next.
    """

    def __init__(self, n):
        self.n = n
        mj, mk, mm, self.r_a2, du, ru, a, b, c = np.empty((9, n * (n - 1) // 2))
        full = np.empty((n, n))
        self.masses = (mj, mk, mm)
        self.chords = (du, ru, a)
        self.f = a
        self.grad = (a, b, c, full)
        self.hess = (a, b, full)
        self.cc = (a, b, c, full)


# each thread keeps the workspace of the last n it evaluated
_local = threading.local()


def _workspace(n):
    """This thread's workspace, rebuilt when n differs from its last one."""
    ws = getattr(_local, "ws", None)
    if ws is None or ws.n != n:
        ws = _local.ws = _Workspace(n)
    return ws


def _frame(masses, config):
    """Packed pair frame of one point: masses, du = t_j - t_k and chords ru.

    Every quantity at the point derives from it, so each point's chords
    are built and checked once.
    """
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")
    return (masses.masses, *_packed_chords(config))


def _mass_pairs(m, out=(None,) * 3):
    """Packed masses m_j and m_k and products m_j m_k of the pairs j < k."""
    j, k, _ = _pairs(m.size)
    # 'clip' skips the bounds pass that makes take buffer its out
    mj = m.take(j, out=out[0], mode="clip")
    mk = m.take(k, out=out[1], mode="clip")
    return mj, mk, np.multiply(mj, mk, out=out[2])


def _u_sums(mm, ru, *betas, out=None):
    """u_beta for each beta from packed mass products and chords.

    ``out`` is an optional pair buffer for the summands.
    """
    return [float(np.sum(np.multiply(mm, _pow(ru, -float(beta), out), out=out)))
            for beta in betas]


def _f_value(aux, mm, ru, out=None):
    u_alpha, u_chord = _u_sums(mm, ru, aux.alpha, -2.0, out=out)
    return u_alpha + u_chord / aux.k


def _grad_theta(aux, m, mj, mk, du, r_a2, out=(None,) * 4):
    """Angle gradient from the pair masses, du and packed r_a2 = ru**-(alpha + 2).

    Row j of the summand holds m_k sin(t_j - t_k) w_jk; below the
    diagonal sin(t_k - t_j) = -sin(du), so that half is mirrored negated.
    ``out`` is three pair buffers and the mirror target.
    """
    s_buf, w_buf, upper, full = out
    s = np.sin(du, out=s_buf)
    w = np.multiply(aux.alpha, r_a2, out=w_buf)
    w -= 2.0 / aux.k
    upper = np.multiply(mk, s, out=upper)
    upper *= w
    lower = np.multiply(mj, s, out=s)  # the last use of s
    lower *= w
    np.negative(lower, out=lower)
    return -(m * np.sum(_mirror(m.size, upper, lower, full), axis=1))


def _hessian_theta(aux, n, mm, du, r_a2, out=(None,) * 3):
    """Angle Hessian from packed mass products, du and r_a2 = ru**-(alpha + 2).

    ``out`` is two pair buffers and the mirror target.
    """
    a = aux.alpha
    c2, off, full = out
    # in place, operation for operation as
    # mm * (-a * (1 + a * c2) * r_a2 + (2 - 4 * c2) / k) with c2 = cos(du/2)**2
    c2 = np.multiply(0.5, du, out=c2)
    np.cos(c2, out=c2)
    c2 *= c2
    off = np.multiply(a, c2, out=off)
    off += 1.0
    off *= -a
    off *= r_a2
    c2 *= 4.0
    np.subtract(2.0, c2, out=c2)
    c2 /= aux.k
    off += c2
    off *= mm
    # cos is even and mm symmetric, so the mirror is exactly symmetric
    h = _mirror(n, off, off, full)
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
    return _u_sums(_mass_pairs(m)[2], ru, beta)[0]


def f_k_value(aux: AuxiliaryFunctional, masses: MassVector,
              config: AngleConfiguration) -> float:
    """Auxiliary functional u_alpha + u_{-2}/k."""
    m, _, ru = _frame(masses, config)
    return _f_value(aux, _mass_pairs(m)[2], ru)


def grad_theta_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                   config: AngleConfiguration) -> np.ndarray:
    """Exact angle gradient of the auxiliary functional.

    Entry k is m_k sum_{j != k} m_j sin(t_j - t_k)
    (alpha / r_jk**(alpha + 2) - 2/k). Pair contributions are equal and
    opposite, so the entries sum to zero up to roundoff.
    """
    m, du, ru = _frame(masses, config)
    mj, mk, _ = _mass_pairs(m)
    return _grad_theta(aux, m, mj, mk, du, _pow(ru, -(aux.alpha + 2.0)))


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
    return _hessian_theta(aux, m.size, _mass_pairs(m)[2], du,
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
