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
thread, whose buffers only the kernels here name (its docstring gives
their layout and the frame rule). Only two evaluators are public: the
angle gradient, and W, which the exclusion scans use. Both build their
own chords, never touch the thread's workspace, return fresh arrays and,
like those two callers, refuse an overflow through ``_check_finite``,
with no numpy warning ahead of it: ``UnsupportedExponent`` when a chord
power overflowed, ``DomainError`` when the masses carried a sum past a
double.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KTooSmall, UnsupportedExponent
from .geometry import (AngleConfiguration, MassVector, _check_gaps, _check_lengths,
                       _mirror, _pair_chords, _pairs)


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

    Nine packed pair buffers and one n x n matrix, 9 n(n - 1)/2 + n^2
    doubles (2.7 MiB at n = 256, 44 MiB at n = 1024): the pair masses
    ``mj``, ``mk`` and ``mm`` = m_j m_k, set once per solve; the frame
    ``du``, ``ru``, ``sin`` = sin(du) and ``r_a2`` = ru**-(alpha + 2); the
    scratch buffers ``s`` and ``t``, which the chord gather, f, the
    gradient, the Hessian and the CC residuals take in turn; and ``full``,
    the mirror target of the last three. Only the kernels of this module
    name them, and every float keeps the bits of the full-matrix formulas.

    ``key`` is None or (angle bytes, alpha): the frame then holds those
    angles and alpha. The frame rule: ``_chords_at`` sets the key to None,
    and only ``_frame`` and a converged ``minimize_f_k`` set it to a point.
    """

    def __init__(self, n):
        self.n = n
        self.key = None
        (self.mj, self.mk, self.mm, self.du, self.ru, self.sin, self.r_a2,
         self.s, self.t) = np.empty((9, n * (n - 1) // 2))
        self.full = np.empty((n, n))


# each thread keeps the workspace of the last n it evaluated
_local = threading.local()


def _workspace(n):
    """This thread's workspace, rebuilt when n differs from its last one."""
    ws = getattr(_local, "ws", None)
    if ws is None or ws.n != n:
        ws = _local.ws = _Workspace(n)
    return ws


def _frame(config, alpha):
    """This thread's workspace holding the frame of config and alpha.

    The CollisionError gap test runs first, so a frame held refuses what
    one built would. The workspace is reused when its key is
    (config's angle bytes, alpha); otherwise the frame is built into it
    and only then is the key set. Call it with numpy overflow warnings off.
    """
    _check_gaps(config)
    ws = _workspace(config.n)
    key = (config.angles.tobytes(), alpha)
    if ws.key != key:
        _chords_at(ws, config.angles)
        _powers(ws, alpha)
        ws.key = key
    return ws


def _chords_at(ws, t):
    """Packed du and ru of the angles t into ws, which then holds no frame."""
    ws.key = None
    _pair_chords(t, (ws.du, ws.ru, ws.s))


def _mass_pairs(ws, m):
    """Packed masses m_j and m_k and products m_j m_k of the pairs j < k into ws."""
    j, k, _ = _pairs(m.size)
    # 'clip' skips the bounds pass that makes take buffer its out
    m.take(j, out=ws.mj, mode="clip")
    m.take(k, out=ws.mk, mode="clip")
    np.multiply(ws.mj, ws.mk, out=ws.mm)


def _powers(ws, alpha):
    """sin(du) and r**-(alpha + 2) of the chords ws holds; returns the powers."""
    np.sin(ws.du, out=ws.sin)
    return _pow(ws.ru, -(alpha + 2.0), ws.r_a2)


def _f_value(aux, ws):
    """f = u_alpha + u_{-2}/k from the pair masses and chords ws holds."""
    mm, ru, out = ws.mm, ws.ru, ws.s
    u_alpha = float(np.add.reduce(np.multiply(mm, _pow(ru, -aux.alpha, out), out=out)))
    u_chord = float(np.add.reduce(np.multiply(mm, _pow(ru, 2.0, out), out=out)))
    return u_alpha + u_chord / aux.k


def _grad_theta(aux, m, ws):
    """Angle gradient from the pair masses and the frame ws holds.

    Row j of the summand holds m_k sin(t_j - t_k) w_jk; below the
    diagonal sin(t_k - t_j) = -sin(du), so that half is mirrored negated.
    """
    n = m.size
    w = np.multiply(aux.alpha, ws.r_a2, out=ws.s)
    w -= 2.0 / aux.k
    upper = np.multiply(ws.mk, ws.sin, out=ws.t)
    upper *= w
    # the upper half is mirrored before the lower one takes its buffer
    full = _mirror(n, upper, None, ws.full)
    lower = np.multiply(ws.mj, ws.sin, out=ws.t)
    lower *= w
    np.negative(lower, out=lower)
    full.T[_pairs(n)[2]] = lower
    return -(m * np.add.reduce(full, axis=1))


def _hessian_theta(aux, ws):
    """Angle Hessian from the pair masses and the frame ws holds, in ``ws.full``."""
    a = aux.alpha
    # in place, operation for operation as
    # mm * (-a * (1 + a * c2) * r_a2 + (2 - 4 * c2) / k) with c2 = cos(du/2)**2
    c2 = np.multiply(0.5, ws.du, out=ws.s)
    np.cos(c2, out=c2)
    c2 *= c2
    off = np.multiply(a, c2, out=ws.t)
    off += 1.0
    off *= -a
    off *= ws.r_a2
    c2 *= 4.0
    np.subtract(2.0, c2, out=c2)
    c2 /= aux.k
    off += c2
    off *= ws.mm
    # cos is even and mm symmetric, so the mirror is exactly symmetric
    h = _mirror(ws.n, off, off, ws.full)
    h.reshape(-1)[:: ws.n + 1] = -np.add.reduce(h, axis=1)
    return h


def _cc_residuals(alpha, m, ws):
    """The CC residuals max|tangential sum|, radial spread and mean radial sum.

    Each sum is a product of the masses with a mirrored matrix: the
    tangential one of sin(t_j - t_k) r**-(alpha + 2), then the radial one
    of r**-alpha. An overflow raises as ``_check_finite`` does.
    """
    n = m.size
    # (j, k), j < k, holds sin(t_k - t_j) = -sin(du); (k, j) its negation
    upper = np.negative(ws.sin, out=ws.s)
    upper *= ws.r_a2
    tangential = _mirror(n, upper, np.negative(upper, out=ws.t), ws.full) @ m
    # the tangential terms are dead, so the radial powers take their buffer
    radial = _pow(ws.ru, -alpha, ws.s)
    radial_sums = _mirror(n, radial, radial, ws.full) @ m
    sums = (float(np.max(np.abs(tangential))),
            float(np.max(radial_sums) - np.min(radial_sums)), float(np.mean(radial_sums)))
    _check_finite(alpha, sums, ws.r_a2, radial)
    return sums


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
    _check_lengths(masses, config)
    _check_gaps(config)
    m, ws = masses.masses, _Workspace(config.n)
    with np.errstate(over="ignore", invalid="ignore"):
        _chords_at(ws, config.angles)
        _mass_pairs(ws, m)
        r_a2 = _powers(ws, aux.alpha)
        grad = _grad_theta(aux, m, ws)
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
    _check_gaps(config)
    with np.errstate(over="ignore", invalid="ignore"):
        w = _pair_weights(aux, _pair_chords(config.angles)[1])
        # r**2/k stays finite, so w overflows exactly where r**-alpha does
        _check_finite(aux.alpha, (float(w.max()),), w)
    return _mirror(config.n, w, w)
