"""Damped Newton minimization of the auxiliary functional.

Work happens in the reduced coordinates (t_1, ..., t_{n-1}) with t_n
pinned at 2*pi. The functional blows up at the ordering boundary, so a
feasibility-clipped, Armijo-backtracked Newton step stays interior and
converges to the unique minimizer.

The reduced Hessian is a reduced weighted graph Laplacian (off-diagonal
entries <= 0, full rows summing to 0; see ``potential``), so it is
positive definite at every iterate in exact arithmetic and the loop takes
the Newton step alone. A singular LU or a step that does not descend is
rounding, and raises ``ConvergenceFailure`` with the last iterate, as a
failed final Cholesky check does, unless the Hessian overflowed: that is
the input's typed error, as an overflowed f or gradient is.

The masses and the start are validated once, on entry. The loop then runs
on raw pinned angle vectors: the step carries a trailing 0.0, so every
trial keeps t_n = 2*pi exactly, and one gap vector per point serves the
trial's one feasibility test (every circular gap >= ``COLLISION_TOL``),
the smallest gap seen and the next feasible-step bound. A trial costs that
gap vector, one packed chord build and two sums; an ``AngleConfiguration``
is built only for the result.

Each point's pair frame lives in this thread's workspace (see
``potential._Workspace``), which results never alias; a solve that
returns converged leaves it keyed to its iterate, so ``verify_cc`` there
on the same thread builds no chords.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceFailure, DomainError
from .geometry import (COLLISION_TOL, TAU, AngleConfiguration, MassVector, _check_gaps,
                       _check_lengths, _check_pinned, _tolerance, regular_ngon)
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


@dataclass(frozen=True, eq=False)
class MinimizeResult:
    """Converged minimizer of the auxiliary functional.

    ``grad_norm`` is the Euclidean norm of the reduced gradient and
    ``min_gap`` the smallest circular gap seen over accepted iterates.
    """

    theta_m: AngleConfiguration
    f_value: float
    grad_norm: float
    iterations: int
    converged: bool
    min_gap: float


def minimize_f_k(aux: AuxiliaryFunctional, masses: MassVector,
                 init: AngleConfiguration | None = None, *,
                 grad_tol: float = 1e-11,
                 max_iter: int = 200) -> MinimizeResult:
    """Minimize the auxiliary functional over pinned angle configurations.

    Parameters
    ----------
    aux : AuxiliaryFunctional
        Exponent and convexity constant.
    masses : MassVector
        Positive masses, length n >= 2.
    init : AngleConfiguration, optional
        Pinned interior starting point. Defaults to the regular n-gon.
        Checked but not used at n = 2, where the minimizer is the
        diameter (pi, 2*pi) in closed form.
    grad_tol : float
        Converged once the reduced gradient norm is at most grad_tol * |f|,
        which scaling the masses by a power of 2 leaves exact.
    max_iter : int
        Maximum number of Newton steps.

    Returns
    -------
    MinimizeResult
        With ``converged`` True, a positive definite reduced Hessian, and
        a strictly decreasing sequence of accepted f values behind it.

    Raises
    ------
    ConvergenceFailure
        If the tolerance is not met within ``max_iter`` steps; the last
        iterate rides along on the exception.
    DimensionError, CollisionError
        For an init of another length, or with a gap below ``COLLISION_TOL``.
    DomainError
        For an unpinned init, a negative or NaN ``grad_tol``, a ``max_iter``
        that is not a nonnegative integer, or masses whose products
        overflow f or its gradient.
    UnsupportedExponent
        When the chord powers r**-(alpha + 2) overflow at an accepted point.
        Neither overflow comes with a numpy warning ahead of the error.
    """
    grad_tol = _tolerance(grad_tol, "grad_tol")
    try:
        steps = operator.index(max_iter)
    except TypeError:
        steps = -1
    if steps < 0:
        raise DomainError(f"max_iter must be a nonnegative integer, got {max_iter!r}")
    max_iter = steps
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
        cfg = regular_ngon(n)
    with np.errstate(over="ignore", invalid="ignore"):
        m = masses.masses
        x = cfg.angles
        min_gap_seen = cfg.min_gap()
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
            return MinimizeResult(cfg, fx, gnorm, 0, True, min_gap_seen)

        def failure(message):
            return ConvergenceFailure(
                message, _result(x, fx, gnorm, iteration, False, min_gap_seen))

        gaps = x[1:] - x[:-1]
        d = np.zeros(n)  # the step, its pinned last entry left at 0.0
        gnorm = np.inf
        for iteration in range(max_iter + 1):
            r_a2 = _powers(ws, aux.alpha)
            gr = _grad_theta(aux, m, ws)[:-1]
            gnorm = _norm(gr)
            _check_finite(aux.alpha, (fx, gnorm), r_a2)
            h = _hessian_theta(aux, ws)
            hr = h[:-1, :-1]
            if gnorm <= grad_tol * abs(fx):
                try:
                    np.linalg.cholesky(hr)
                except np.linalg.LinAlgError:
                    raise failure("reduced Hessian is not positive definite "
                                  "at the candidate") from None
                # the gradient and the Hessian left x's frame in place
                ws.key = x.tobytes(), aux.alpha
                return _result(x, fx, gnorm, iteration, True, min_gap_seen)
            if iteration == max_iter:
                break
            # the next mirror zeroes the diagonal, so the regularization goes
            # in place, through a strided view of h's C-contiguous buffer
            h.reshape(-1)[:-1:n + 1] += _DIAG_REG * float(hr.trace()) / n
            try:
                step = np.linalg.solve(hr, -gr)
                slope = float(gr @ step)
            except np.linalg.LinAlgError:
                slope = math.nan
            if not slope < 0.0:  # no step, or one that does not descend
                # an overflowed Hessian is the input's error, not rounding
                if not np.isfinite(hr).all():
                    _check_finite(aux.alpha, (math.inf,), r_a2)
                raise failure(f"reduced Hessian is not positive definite at iteration {iteration}")
            d[:-1] = step
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
            min_gap_seen = min(min_gap_seen, gap_t)
        raise failure(f"no convergence within {max_iter} Newton steps")


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


def _result(x, fx, gnorm, iterations, converged, min_gap) -> MinimizeResult:
    return MinimizeResult(AngleConfiguration(x), fx, gnorm, iterations,
                          converged, min_gap)
