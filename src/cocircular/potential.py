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
the masses, the differences du and the chords ru of the pairs j < k.
Pair quantities are held packed, one entry per pair, in
``np.triu_indices(n, 1)`` order, the row-major order of the strict upper
triangle. Values are sums over the packed pairs. The gradient, the
Hessian and W compute their pair terms on the n(n - 1)/2 packed pairs
only and ``_mirror`` expands them into n x n matrices with a zero
diagonal, by one gather from a contiguous ``[upper | lower]`` source;
their rows are then summed in the same order as the full-matrix
formulas, so every float keeps the bits those formulas give: t_k - t_j
is exactly -(t_j - t_k) in IEEE arithmetic and numpy's sin is odd
(checked bit for bit by the tests), so a symmetric quantity is mirrored
as is and an antisymmetric one with its sign flipped.

The Hessian forms cos(du/2)**2 from the chord as 1 - ru**2/4, with no
cosine pass; ``_hessian_theta`` bounds each entry against the cosine
form. The Hessian only steers the Newton step, so f, the gradient, W
and the CC residuals keep their formulas and their bits at given
angles, while a minimizer's last digits follow the iterate path (see
``minimizer``).

Every evaluation runs in this thread's ``_Workspace``, which holds the
pair index maps and the buffers for one n; only the kernels here name
them (its docstring gives their layout and the frame rule). The Newton
loop builds each point's chords there, and ``verify_cc``, W and the
angle gradient read the frame ``_frame`` returns, so a check at a
converged solve's minimizer builds no chords. Only two evaluators are
public: the angle gradient, and W, which the exclusion scans use. Both
return fresh arrays and, like those two callers, refuse an overflow
through ``_check_finite``, with no numpy warning ahead of it:
``UnsupportedExponent`` when a chord power overflowed, ``DomainError``
when the masses carried a sum past a double.
"""

from __future__ import annotations

import math
import numbers
import threading
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, KTooSmall, UnsupportedExponent
from .geometry import AngleConfiguration, MassVector, _chords, _check_gaps, _check_lengths


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
    """base**expo with multiply chains for small integer exponents."""
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
    """Index maps and buffers for the pair evaluations at one n, and the point they describe.

    With P = n(n - 1)/2, the maps are the packed pair indices ``j`` and
    ``k`` (pair p is (j_p, k_p), j_p < k_p) and ``gather``, the mirror's
    flat map: entry j_p n + k_p is p and entry k_p n + j_p is P + p; the
    diagonal entries are 0 and get overwritten. They are 2P + n^2 intp,
    built once per workspace, never written after, and kept writeable
    and C-contiguous, because ``ndarray.take`` copies a read-only or
    non-intp index array before every gather.

    Nine packed pair buffers and one n x n matrix, 9P + n^2 doubles: the
    pair masses ``mj``, ``mk`` and ``mm`` = m_j m_k, set once per solve
    and by the public gradient; the frame ``du``, ``ru``, ``sin`` =
    sin(du) and ``r_a2`` = ru**-(alpha + 2); the scratch buffers ``s``
    and ``t``, which the chord gather, f, the gradient, the Hessian and
    the CC residuals take in turn; and ``full``, the mirror target of the
    last three and, ahead of its mirror, the gradient's scratch for its
    pair weights. ``s`` and ``t`` are adjacent rows of one block, so
    ``st`` reads them as the mirror's ``[upper | lower]`` source. With
    the maps that is 8 (11P + 2n^2) bytes on a 64-bit host: 3.7 MiB at
    n = 256, 60 MiB at n = 1024. Every float keeps the bits of the
    full-matrix formulas.

    ``key`` is None or (angle bytes, alpha): the frame then holds those
    angles and alpha. The frame rule: ``_chords_at`` sets the key to None,
    and only ``_frame`` and a converged ``minimize_f_k`` set it to a point.
    """

    def __init__(self, n):
        self.n = n
        self.key = None
        # row j of the triangle holds the n - 1 - j pairs (j, j + 1..n - 1); built
        # from those counts, not from np.triu_indices' n x n mask
        counts = np.arange(n - 1, 0, -1)
        j = self.j = np.repeat(np.arange(n - 1), counts)
        k = self.k = np.arange(j.size) + np.repeat(np.arange(1, n) - (np.cumsum(counts) - counts),
                                                   counts)
        self.gather = np.zeros(n * n, dtype=np.intp)
        self.gather[j * n + k] = np.arange(j.size)
        self.gather[k * n + j] = np.arange(j.size, 2 * j.size)
        (self.mj, self.mk, self.mm, self.du, self.ru, self.sin, self.r_a2,
         self.s, self.t) = np.empty((9, j.size))
        self.full = np.empty((n, n))

    @property
    def st(self):
        """``s`` then ``t`` as one 2P-long view of the block that holds them."""
        return self.s.base[-2:].reshape(-1)


def _mirror(ws, pairs, out):
    """n x n matrix from packed ``pairs`` = [upper | lower] with zeros on the diagonal.

    Entry p of the upper half lands at (j_p, k_p) and entry p of the
    lower half at (k_p, j_p), with (j_p, k_p) the packed pair order of
    ws. ``out`` must be C-contiguous and must not overlap ``pairs``:
    every entry is gathered from ``pairs`` and the diagonal then zeroed
    through a strided view of the flat buffer.
    """
    flat = out.reshape(-1)
    # 'clip' skips the bounds pass that makes take buffer its out
    pairs.take(ws.gather, out=flat, mode="clip")
    flat[:: ws.n + 1] = 0.0
    return out


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
    """Packed du = t_j - t_k and chords ru = |2 sin(du/2)| of the angles t into ws.

    ws then holds no frame. The angles are not checked here: callers pass
    increasing angles in (0, 2*pi] with every circular gap at least
    ``COLLISION_TOL``. The gathered t_k pass through ``ws.s``.
    """
    ws.key = None
    # 'clip' skips the bounds pass that makes take buffer its out
    t.take(ws.j, out=ws.du, mode="clip")
    ws.du -= t.take(ws.k, out=ws.s, mode="clip")
    _chords(ws.du, ws.ru)


def _mass_pairs(ws, m):
    """Packed masses m_j and m_k and products m_j m_k of the pairs j < k into ws."""
    # 'clip' skips the bounds pass that makes take buffer its out
    m.take(ws.j, out=ws.mj, mode="clip")
    m.take(ws.k, out=ws.mk, mode="clip")
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
    # the pair weights w sit at the head of full, which the mirror then overwrites
    w = np.multiply(aux.alpha, ws.r_a2, out=ws.full.reshape(-1)[:ws.s.size])
    w -= 2.0 / aux.k
    upper = np.multiply(ws.mk, ws.sin, out=ws.s)
    upper *= w
    lower = np.multiply(ws.mj, ws.sin, out=ws.t)
    lower *= w
    np.negative(lower, out=lower)
    full = _mirror(ws, ws.st, ws.full)
    return -(m * np.add.reduce(full, axis=1))


def _hessian_theta(aux, ws):
    """Angle Hessian from the pair masses and the frame ws holds, in ``ws.full``.

    The off-diagonal entry of pair (j, k) is
    m_j m_k (-a (1 + a c2) r**-(a + 2) + (2 - 4 c2)/k), a = alpha, with
    c2 = cos(du/2)**2 formed from the chord as 1 - ru**2/4, which takes
    no cosine.

    Accuracy against the cosine form, the same operations on
    c2' = fl(cos(du/2))**2 with the same r_a2 and mm (``hessian_theta``
    of ``tests/oracle.py``). Let u = 2**-53, take np.sin and np.cos
    within one ulp, and let c = cos(du/2)**2 and s = 1 - c, exact at the
    computed du. The chord carries the sine's 2u and its square about
    5u, the quarter is exact and the subtraction adds one u, so
    |c2 - c| <= 6u s + u c, against |c2' - c| <= 6u c. So
    |c2 - c2'| <= 7u: near an antipodal pair (c near 0) c2 is off by
    about 6u where c2' is off by 6u c, and near a collision both are
    within a few u c. Each form's other roundings add at most
    gamma_6 = 6u/(1 - 6u) times m_j m_k (a (1 + a) r_a2 + 2/k), so each
    off-diagonal entry is within

        m_j m_k ((a**2 r_a2 + 4/k) 7u + 2 gamma_6 (a (1 + a) r_a2 + 2/k))

    of the cosine form's, and each diagonal entry within the sum of its
    row's bounds times 1 + gamma_(n-1), plus 2 gamma_(n-1) times the sum
    of the absolute values of the cosine form's row. The tests check
    this at near-antipodal and near-collision pairs.
    """
    a = aux.alpha
    # in place, operation for operation as
    # mm * (-a * (1 + a * c2) * r_a2 + (2 - 4 * c2) / k) with c2 = 1 - ru * ru / 4;
    # the quarter is exact, so it may scale either factor
    c2 = np.multiply(-0.25, ws.ru, out=ws.s)
    c2 *= ws.ru
    c2 += 1.0
    off = np.multiply(a, c2, out=ws.t)
    off += 1.0
    off *= -a
    off *= ws.r_a2
    c2 *= 4.0
    np.subtract(2.0, c2, out=c2)
    c2 /= aux.k
    off += c2
    off *= ws.mm
    # both halves of the mirror's source are off, so h is symmetric bit for bit
    ws.s[...] = off
    h = _mirror(ws, ws.st, ws.full)
    h.reshape(-1)[:: ws.n + 1] = -np.add.reduce(h, axis=1)
    return h


def _cc_residuals(alpha, m, ws):
    """The CC residuals max|tangential sum|, radial spread and mean radial sum.

    Each sum is a product of the masses with a mirrored matrix: the
    tangential one of sin(t_j - t_k) r**-(alpha + 2), then the radial one
    of r**-alpha. An overflow raises as ``_check_finite`` does.
    """
    # (j, k), j < k, holds sin(t_k - t_j) = -sin(du); (k, j) its negation
    upper = np.negative(ws.sin, out=ws.s)
    upper *= ws.r_a2
    np.negative(upper, out=ws.t)
    tangential = _mirror(ws, ws.st, ws.full) @ m
    # the tangential terms are dead, so the radial powers take their buffers
    radial = _pow(ws.ru, -alpha, ws.s)
    ws.t[...] = radial
    radial_sums = _mirror(ws, ws.st, ws.full) @ m
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
    m = masses.masses
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _frame(config, aux.alpha)
        _mass_pairs(ws, m)
        grad = _grad_theta(aux, m, ws)
        # each entry is a mass-weighted sum over pairs
        _check_finite(aux.alpha, grad, ws.r_a2)
    return grad


def pair_weight_matrix(aux: AuxiliaryFunctional,
                       config: AngleConfiguration) -> np.ndarray:
    """Matrix of pair weights r_jk**-alpha + r_jk**2/k with zero diagonal.

    This is the mass-space Hessian of the auxiliary functional: for any
    real vector y, y^T W y / 2 equals the functional evaluated with y in
    place of the masses.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        ws = _frame(config, aux.alpha)
        w = _pair_weights(aux, ws.ru)
        # r**2/k stays finite, so w overflows exactly where r**-alpha does
        _check_finite(aux.alpha, (float(w.max()),), w)
    return _mirror(ws, np.concatenate((w, w)), np.empty((config.n, config.n)))
