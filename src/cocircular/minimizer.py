"""Damped Newton minimization of the auxiliary functional.

Work happens in the reduced coordinates (t_1, ..., t_{n-1}) with t_n
pinned at 2*pi. The functional blows up at the ordering boundary, so a
feasibility-clipped, Armijo-backtracked Newton step stays interior and
converges to the unique minimizer.

The reduced Hessian is a reduced weighted graph Laplacian (off-diagonal
entries <= 0, full rows summing to 0; see ``potential``), so it is
positive definite at every iterate in exact arithmetic and the loop takes
the Newton step alone. Each point makes one LAPACK call on it, in place
(``_cholesky``): a Cholesky solve for the step, or the final check's
Cholesky factorization. A failed factorization or a step that does not
descend is rounding, and raises ``ConvergenceFailure`` with the last
iterate, unless the Hessian overflowed: that is the input's typed error,
as an overflowed f or gradient is. With numpy's bundled OpenBLAS the
call runs on one OpenBLAS thread, set and restored under a module lock,
so theta_m's bits do not depend on the thread count; with another
LAPACK, np.linalg solves and factors copies, and the bits follow it.

The Hessian only steers the step (``potential._hessian_theta`` bounds
its entries). The stop leaves theta_m up to about grad_tol·|f| over the
reduced Hessian's smallest eigenvalue from the minimizer, so theta_m's
last digits, and f's and the gradient norm's there, follow the iterate
path; at given angles f, the gradient and the stop test keep their bits.

Without an init the loop starts at ``_mass_start``, whose neighbour gaps
follow the masses; equal masses start at the regular n-gon. The masses
and the start are validated once, on entry. The loop then runs
on raw pinned angle vectors: the step carries a trailing 0.0, so every
trial keeps t_n = 2*pi exactly, and one gap vector per point serves the
trial's one feasibility test (every circular gap >= ``COLLISION_TOL``)
and the next feasible-step bound. A trial costs that gap vector, one
packed chord build and two sums; an ``AngleConfiguration`` is built only
for the result.

Each point's pair frame lives in this thread's workspace (see
``potential._Workspace``), which results never alias; a solve that
returns converged leaves it keyed to its iterate, so ``verify_cc`` there
on the same thread builds no chords.
"""

from __future__ import annotations

import ctypes
import math
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ConvergenceFailure
from .geometry import (COLLISION_TOL, TAU, AngleConfiguration, MassVector, _check_gaps,
                       _check_lengths, _check_pinned, _tolerance)
from .potential import (AuxiliaryFunctional, _check_finite, _chords_at, _f_value,
                        _grad_theta, _hessian_theta, _mass_pairs, _powers,
                        _workspace)

_ARMIJO = 1e-4
_SHRINK = 0.5
_BOUNDARY_FRACTION = 0.9
_DIAG_REG = 1e-12
# ulp slack keeps full Newton steps acceptable at the float floor, where
# the predicted decrease is smaller than rounding in f
_ULP_SLACK = 4.0 * np.finfo(float).eps
_TINY = float(np.finfo(float).tiny)
# the least start weight w_j of ``_mass_start``
_W_FLOOR = 2.0 ** -10
# the Newton step cap, read at each call
_MAX_ITER = 200


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """Converged minimizer of the auxiliary functional.

    ``grad_norm`` is the Euclidean norm of the reduced gradient.
    """

    theta_m: AngleConfiguration
    f_value: float
    grad_norm: float
    iterations: int
    converged: bool


def minimize_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                 init: AngleConfiguration | None = None, *,
                 grad_tol: float = 1e-11) -> MinimizeResult:
    """Minimize the auxiliary functional over pinned angle configurations.

    Parameters
    ----------
    aux : AuxiliaryFunctional
        Exponent and convexity constant.
    masses : MassVector
        Positive masses, length n >= 2.
    init : AngleConfiguration, optional
        Pinned interior starting point. Defaults to ``_mass_start``, whose
        gaps follow the masses and which is the regular n-gon for equal
        masses. Checked but not used at n = 2, where the minimizer is the
        diameter (pi, 2*pi) in closed form.
    grad_tol : float
        Converged once the reduced gradient norm is at most grad_tol * |f|,
        which scaling the masses by a power of 2 leaves exact.

    Returns
    -------
    MinimizeResult
        With ``converged`` True, a positive definite reduced Hessian, and
        a strictly decreasing sequence of accepted f values behind it.

    Raises
    ------
    ConvergenceFailure
        If the tolerance is not met within ``_MAX_ITER`` (200) Newton
        steps; the last iterate rides along on the exception.
    DimensionError, CollisionError
        For an init of another length, or with a gap below ``COLLISION_TOL``.
    DomainError
        For an unpinned init, a negative or NaN ``grad_tol``, or masses
        whose products overflow f or its gradient.
    UnsupportedExponent
        When the chord powers r**-(alpha + 2) overflow at an accepted point.
        Neither overflow comes with a numpy warning ahead of the error.
    """
    grad_tol = _tolerance(grad_tol, "grad_tol")
    n = masses.n
    if init is not None:
        _check_lengths(masses, init)
        _check_pinned(init)
        cfg = init.normalized()
        _check_gaps(cfg)
    if n == 2:
        # w(r) = r**-alpha + r**2/k falls strictly on (0, 2) for every
        # k >= k_min, so the diameter is the unique minimizer. At k = k_min
        # w'(2) = 0, the reduced Hessian there is zero, and the
        # positive-definite check below could not certify it.
        cfg = AngleConfiguration(np.array([TAU / 2.0, TAU]))
    elif init is None:
        cfg = _mass_start(masses.masses, aux.alpha)
    with np.errstate(over="ignore", invalid="ignore"):
        m = masses.masses
        x = cfg.angles
        # the pair frame of each point and the pair masses live in this
        # thread's workspace; results copy out of it
        ws = _workspace(n)
        _chords_at(ws, x)
        _mass_pairs(ws, m)
        fx = _f_value(aux, ws)
        if n == 2:
            r_a2 = _powers(ws, aux.alpha)
            gnorm = float(abs(_grad_theta(aux, m, ws)[0]))
            _check_finite(aux.alpha, (fx, gnorm), r_a2)
            ws.key = x.tobytes(), aux.alpha
            return MinimizeResult(cfg, fx, gnorm, 0, True)

        def failure(message):
            return ConvergenceFailure(message, _result(x, fx, gnorm, iteration, False))

        gaps = x[1:] - x[:-1]
        d = np.zeros(n)  # the step, its pinned last entry left at 0.0
        gnorm = np.inf
        for iteration in range(_MAX_ITER + 1):
            r_a2 = _powers(ws, aux.alpha)
            gr = _grad_theta(aux, m, ws)[:-1]
            gnorm = _norm(gr)
            _check_finite(aux.alpha, (fx, gnorm), r_a2)
            h = _hessian_theta(aux, ws)
            if gnorm <= grad_tol * abs(fx):
                if not _cholesky(h):
                    raise failure("reduced Hessian is not positive definite at the candidate")
                # the gradient and the Hessian left x's frame in place
                ws.key = x.tobytes(), aux.alpha
                return _result(x, fx, gnorm, iteration, True)
            if iteration == _MAX_ITER:
                break
            # the next mirror zeroes the diagonal, so the regularization goes
            # in place, through a strided view of h's C-contiguous buffer
            hr = h[:-1, :-1]
            reg = _DIAG_REG * float(hr.trace()) / n
            if math.isinf(reg):  # finite entries whose sum passes a double
                reg = _DIAG_REG * float(np.add.reduce(hr.diagonal() * 2.0 ** -64)) / n * 2.0 ** 64
            h.reshape(-1)[:-1:n + 1] += reg
            step = np.negative(gr, out=d[:-1])
            slope = float(gr @ step) if _cholesky(h, d) else math.nan
            if not slope < 0.0:  # no step, or one that does not descend
                # an overflowed Hessian is the input's error, not rounding;
                # the factorization may have overwritten h, so it is rebuilt
                if not np.isfinite(_hessian_theta(aux, ws)[:-1, :-1]).all():
                    _check_finite(aux.alpha, (math.inf,), r_a2)
                raise failure(f"reduced Hessian is not positive definite at iteration {iteration}")
            # largest t keeping every gap positive: the first angle against 0,
            # then consecutive gaps, the last against the pinned 2*pi
            dgaps = d[1:] - d[:-1]
            shrinking = dgaps < 0.0
            t_max = np.minimum.reduce(gaps[shrinking] / -dgaps[shrinking],
                                      initial=np.inf)
            if d[0] < 0.0:
                t_max = min(t_max, x[0] / -d[0])
            t = min(1.0, _BOUNDARY_FRACTION * float(t_max))
            slack = _ULP_SLACK * abs(fx)
            while t > 1e-18:
                xt = x + t * d
                gaps_t = xt[1:] - xt[:-1]
                gap_t = float(min(gaps_t.min(), xt[0] + TAU - xt[-1]))
                # xt[-1] is 2*pi exactly, so passing (NaN fails, and an
                # infinite angle leaves a gap of -inf or NaN) puts every angle
                # in (0, 2*pi], increasing, with every chord in (0, 2]
                if not gap_t >= COLLISION_TOL:
                    t *= _SHRINK
                    continue
                # the step is solved, so the point's frame is dead; the
                # last trial built is the one accepted
                _chords_at(ws, xt)
                ft = _f_value(aux, ws)
                if ft <= fx + _ARMIJO * t * slope + slack:
                    break
                t *= _SHRINK
            else:
                raise failure("line search stalled")
            x, gaps, fx = xt, gaps_t, ft
        raise failure(f"no convergence within {_MAX_ITER} Newton steps")


class _OpenBLAS(NamedTuple):
    """The ILP64 routines of the OpenBLAS bundled with numpy that ``_cholesky`` calls."""

    posv: object
    potrf: object
    get_threads: object
    set_threads: object


def _openblas() -> _OpenBLAS | None:
    """dposv, dpotrf and the thread count's getter and setter of the OpenBLAS
    numpy's linalg links, or None where it links another LAPACK."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)
        blas = _OpenBLAS(*(getattr(lib, name) for name in (
            "scipy_dposv_64_", "scipy_dpotrf_64_", "scipy_openblas_get_num_threads64_",
            "scipy_openblas_set_num_threads64_")))
    except (AttributeError, OSError):
        return None
    # Fortran takes every argument by reference, integers as 64-bit, and
    # UPLO's length as a trailing hidden argument
    i64 = ctypes.POINTER(ctypes.c_int64)
    blas.posv.argtypes = [ctypes.c_char_p, i64, i64, ctypes.c_void_p, i64, ctypes.c_void_p,
                          i64, i64, ctypes.c_size_t]
    blas.potrf.argtypes = [ctypes.c_char_p, i64, ctypes.c_void_p, i64, i64, ctypes.c_size_t]
    blas.posv.restype = blas.potrf.restype = None
    blas.get_threads.argtypes, blas.get_threads.restype = [], ctypes.c_int
    blas.set_threads.argtypes, blas.set_threads.restype = [ctypes.c_int], None
    return blas


_LAPACK = _openblas()
_ONE = ctypes.c_int64(1)
# the OpenBLAS thread count is process-wide: held from set to restore
_LOCK = threading.Lock()


def _cholesky(h: np.ndarray, b: np.ndarray | None = None) -> bool:
    """Whether the reduced Hessian, h's leading n - 1 block, factors as L L^T.

    Given b, the step's buffer of length n, b's first n - 1 entries become
    that block's solution for themselves. With ``_LAPACK`` this is one
    in-place call, dposv with b and dpotrf without, UPLO 'L' and N = n - 1
    on h's own buffer at lda = n: h is C-ordered and symmetric bit for
    bit, so the Fortran lower triangle it reads is h's upper one, the same
    matrix, and h is left holding the factor. The call runs on one
    OpenBLAS thread and the count is restored after it. Without
    ``_LAPACK``, np.linalg solves or factors a copy of the transposed
    view, the same matrix, whose Fortran-order copy reads h's rows
    contiguously, and h is left as it was.
    """
    if _LAPACK is None:
        hr = h[:-1, :-1]
        try:
            if b is None:
                np.linalg.cholesky(hr.T)
            else:
                b[:-1] = np.linalg.solve(hr.T, b[:-1])
        except np.linalg.LinAlgError:
            return False
        return True
    n = h.shape[0]
    size, lda, info = ctypes.c_int64(n - 1), ctypes.c_int64(n), ctypes.c_int64()
    with _LOCK:
        threads = _LAPACK.get_threads()
        _LAPACK.set_threads(1)
        try:
            if b is None:
                _LAPACK.potrf(b"L", size, h.ctypes.data, lda, info, 1)
            else:
                _LAPACK.posv(b"L", size, _ONE, h.ctypes.data, lda, b.ctypes.data, size, info, 1)
        finally:
            _LAPACK.set_threads(threads)
    return info.value == 0


def _mass_start(m: np.ndarray, alpha: float) -> AngleConfiguration:
    """Pinned start whose gap between neighbours j and j + 1 is proportional to w_j + w_(j+1).

    w = max((m / max m)**(1/(alpha + 1)), ``_W_FLOOR``), and the gap
    between the last body and the first wraps around through 2*pi. A
    pair force of m_j m_k r**-(alpha + 1) reaches a given size at a chord
    that grows as the masses' (alpha + 1)-th root, so each body takes
    room in proportion to its w, split between its two gaps. The sum
    leaves a light body between heavy ones near the middle of their gap,
    where it minimizes. The product w_j w_(j+1) squeezes both its gaps
    toward 0: on one light mass (1e-6 of the others, n = 8..40, alpha in
    {0.5, 1, 3, 10}) it took 2,098 Newton steps to the sum's 445 and the
    regular n-gon's 772.

    With p_j = w_(j-1) + w_j (p_0 = w_(n-1) + w_0, the wrapping gap), the
    start is t = 2*pi * s / s_(n-1), s the running sum of p, with t_(n-1)
    set to 2*pi. Then:

    * Equal masses give the bytes of ``regular_ngon(n)``: every w is 1.0
      (pow(1, y) = 1), s_k = 2(k + 1) is exact, and
      fl(fl(2*pi * 2(k + 1)) / 2n) = fl(fl(2*pi * (k + 1)) / n), since
      doubling is exact.
    * m -> 2**k m keeps every bit while no mass leaves the normal range:
      m / max m is the same quotient of exactly scaled operands.
    * The start is pinned, and every circular gap is at least
      2*pi * _W_FLOOR / n * (1 - n 2**-42) - 8 pi u (u = 2**-53), which is
      at least ``COLLISION_TOL`` for every n <= 2**32 (the (n - 1)**2
      reduced Hessian of a larger n holds 2**67 bytes). Each w lies in
      [_W_FLOOR, 1]: a faithful pow of m / max m <= 1 is at most 1. So
      2 _W_FLOOR <= p_j <= 2, and s_(n-1) <= 2n (1 + n u). A rounded sum
      s_k = fl(s_(k-1) + p_k) exceeds s_(k-1) by p_k within u s_(n-1),
      so by at least p_k (1 - n 2**-43); the wrapping gap t_0 is
      2*pi * p_0 / s_(n-1) to two roundings; and each t_k carries two
      roundings, at most 2u * 2*pi apiece. Without the floor, a mass
      1e-300 of the heaviest would take w = 1e-150 at alpha = 1, and two
      such neighbours a gap far below ``COLLISION_TOL``.

    Masses below _W_FLOOR**(alpha + 1) of the heaviest all start as if at
    that ratio, so a run of such bodies starts spread out, not in one
    cluster within rounding of a collision. The minimizer then moves
    them. No numpy warning comes from masses of any ratio: m / max m can
    only underflow, which numpy ignores by default.
    """
    w = np.maximum((m / m.max()) ** (1.0 / (alpha + 1.0)), _W_FLOOR)
    s = np.cumsum(w + np.roll(w, 1))
    t = TAU * s / s[-1]
    t[-1] = TAU
    return AngleConfiguration(t)


def _norm(gr: np.ndarray) -> float:
    """Euclidean norm of gr: sqrt(gr @ gr), bit for bit, where that sum is normal.

    Below the smallest normal double the sum of squares loses its bits, and
    at 0.0 it would pass any stopping test; past the largest it is inf for
    a finite gr. The sum is then taken over gr / max|gr| and the scale put
    back.
    """
    squares = float(gr @ gr)
    if _TINY <= squares < math.inf or not gr.any():
        return math.sqrt(squares)
    scale = float(np.abs(gr).max())
    unit = gr / scale
    return scale * math.sqrt(float(unit @ unit))


def _result(x, fx, gnorm, iterations, converged) -> MinimizeResult:
    return MinimizeResult(AngleConfiguration(x), fx, gnorm, iterations, converged)
