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

The Newton loop and ``verify_cc`` evaluate f, the gradient, the Hessian
and the CC residuals into one ``_Workspace`` per thread, kept for the
last n evaluated there. Its one key, (angle bytes, alpha), is read by
``_frame`` alone and set besides only by a converged solve, so
``verify_cc`` at the minimizer and alpha the loop has just returned
builds no chords. Only two evaluators are public: the angle gradient,
and W, which the exclusion scans use. Both build their own chords, never
touch the workspace, return fresh arrays and, like those two callers,
refuse an overflow through ``_check_finite``, with no numpy warning
ahead of it: ``UnsupportedExponent`` when a chord power overflowed,
``DomainError`` when the masses carried a sum past a double.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, KTooSmall, UnsupportedExponent
from .geometry import (AngleConfiguration, MassVector, _check_gaps, _mirror,
                       _packed_chords, _pair_chords, _pairs)


def k_min(alpha: float) -> float:
    """Smallest admissible convexity constant, 2**(3 + alpha)/alpha.

    Raises UnsupportedExponent where it is no finite double: the power
    overflows past alpha of about 1021, the quotient below about 4.45e-308.
    """
    try:
        k = 2.0 ** (3.0 + alpha) / alpha
    except OverflowError:
        k = math.inf
    if not math.isfinite(k):
        raise UnsupportedExponent(f"2**(3 + alpha)/alpha overflows at alpha = {alpha}")
    return k


def _finite_real(x) -> bool:
    """Whether x is a real number with a finite double (an int past one is not)."""
    try:
        return isinstance(x, numbers.Real) and math.isfinite(x)
    except OverflowError:
        return False


def _check_alpha(alpha) -> float:
    """alpha as a float; UnsupportedExponent unless finite and positive."""
    if not _finite_real(alpha):
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
        elif not _finite_real(self.k):
            raise DomainError("k must be a finite number")
        elif self.k < threshold:
            raise KTooSmall(f"k = {self.k} is below 2**(3 + alpha)/alpha = {threshold}")
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
    return np.power(base, expo, out=out)


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
    """Buffers for the pair evaluations at one n, and the point they describe.

    Nine pair buffers (the packed pair masses m_j, m_k and m_j m_k,
    r**-(alpha + 2), du and ru, and three scratch buffers) and one n x n
    mirror target: 9 n(n - 1)/2 + n^2 doubles. The chord gather and f take
    the first scratch buffer, the gradient all three, leaving sin(du) in
    the first; the Hessian and the CC residuals take the other two.

    ``key`` is None or (angle bytes, alpha): the buffers then hold du, ru,
    sin(du) and r**-(alpha + 2) at those angles. The frame rule: only
    ``_frame`` reads the key, and outside ``potential`` only
    ``minimize_f_k`` writes it, to None on entry and to its iterate where
    it returns converged.
    """

    def __init__(self, n):
        self.n = n
        self.key = None
        mj, mk, mm, self.r_a2, du, ru, a, b, c = np.empty((9, n * (n - 1) // 2))
        full = np.empty((n, n))
        self.masses = (mj, mk, mm)
        self.chords = (du, ru, a)
        self.f = self.sin = a
        self.grad = (a, b, c, full)
        self.hess = (b, c, full)
        self.cc = (b, c, full)


# each thread keeps the workspace of the last n it evaluated
_local = threading.local()


def _workspace(n):
    """This thread's workspace, rebuilt when n differs from its last one."""
    ws = getattr(_local, "ws", None)
    if ws is None or ws.n != n:
        ws = _local.ws = _Workspace(n)
    return ws


def _frame(config, alpha):
    """This thread's workspace holding du, ru, sin(du) and r**-(alpha + 2) at config.

    The CollisionError gap test runs first, so a frame held refuses what
    one built would. The workspace is reused when its key is
    (config's angle bytes, alpha); otherwise all four are built into it
    and only then is the key set. Call it with numpy overflow warnings off.
    """
    _check_gaps(config)
    ws = _workspace(config.n)
    key = (config.angles.tobytes(), alpha)
    if ws.key != key:
        ws.key = None
        du, ru = _pair_chords(config.angles, ws.chords)
        np.sin(du, out=ws.sin)
        _pow(ru, -(alpha + 2.0), ws.r_a2)
        ws.key = key
    return ws


def _mass_pairs(m, out=(None,) * 3):
    """Packed masses m_j and m_k and products m_j m_k of the pairs j < k."""
    j, k, _ = _pairs(m.size)
    # 'clip' skips the bounds pass that makes take buffer its out
    mj = m.take(j, out=out[0], mode="clip")
    mk = m.take(k, out=out[1], mode="clip")
    return mj, mk, np.multiply(mj, mk, out=out[2])


def _f_value(aux, mm, ru, out):
    """f = u_alpha + u_{-2}/k from packed mass products and chords.

    ``out`` is a pair buffer for the summands.
    """
    u_alpha = float(np.add.reduce(np.multiply(mm, _pow(ru, -aux.alpha, out), out=out)))
    u_chord = float(np.add.reduce(np.multiply(mm, _pow(ru, 2.0, out), out=out)))
    return u_alpha + u_chord / aux.k


def _grad_theta(aux, m, mj, mk, du, r_a2, out=(None,) * 4):
    """Angle gradient from the pair masses, du and packed r_a2 = ru**-(alpha + 2).

    Row j of the summand holds m_k sin(t_j - t_k) w_jk; below the
    diagonal sin(t_k - t_j) = -sin(du), so that half is mirrored negated.
    ``out`` is three pair buffers and the mirror target; sin(du) is left
    in the first.
    """
    n = m.size
    s_buf, w_buf, half, full = out
    s = np.sin(du, out=s_buf)
    w = np.multiply(aux.alpha, r_a2, out=w_buf)
    w -= 2.0 / aux.k
    upper = np.multiply(mk, s, out=half)
    upper *= w
    # the upper half is mirrored before the lower one takes its buffer
    full = _mirror(n, upper, None, full)
    lower = np.multiply(mj, s, out=half)
    lower *= w
    np.negative(lower, out=lower)
    full.T[_pairs(n)[2]] = lower
    return -(m * np.add.reduce(full, axis=1))


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
    h.reshape(-1)[:: n + 1] = -np.add.reduce(h, axis=1)
    return h


def _pair_weights(aux, ru):
    """Pair weights r**-alpha + r**2/k of the chords ru."""
    return _pow(ru, -aux.alpha) + (ru * ru) / aux.k


def grad_theta_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                   config: AngleConfiguration) -> np.ndarray:
    """Exact angle gradient of the auxiliary functional.

    Entry k is m_k sum_{j != k} m_j sin(t_j - t_k)
    (alpha / r_jk**(alpha + 2) - 2/k). Pair contributions are equal and
    opposite, so the entries sum to zero up to roundoff.
    """
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")
    m = masses.masses
    du, ru = _packed_chords(config)
    with np.errstate(over="ignore", invalid="ignore"):
        mj, mk, _ = _mass_pairs(m)
        r_a2 = _pow(ru, -(aux.alpha + 2.0))
        grad = _grad_theta(aux, m, mj, mk, du, r_a2)
        # each entry is a mass-weighted sum over pairs
        _check_finite(aux.alpha, grad, r_a2)
    return grad


def pair_weight_matrix(aux: AuxiliaryFunctional,
                       config: AngleConfiguration) -> np.ndarray:
    """Matrix of pair weights r_jk**-alpha + r_jk**2/k with zero diagonal.

    This is the mass-space Hessian of the auxiliary functional: for any
    real vector y, y^T W y / 2 equals the functional evaluated with y in
    place of the masses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        w = _pair_weights(aux, _packed_chords(config)[1])
        # r**2/k stays finite, so w overflows exactly where r**-alpha does
        _check_finite(aux.alpha, (float(w.max()),), w)
    return _mirror(config.n, w, w)
