"""Slow, independent reference implementations the tests compare against.

A grid-search minimizer for n <= 5 and finite-difference derivatives, plus
the test oracles that no command reaches: the reduced coordinates of a
pinned configuration, the dihedral group's algebra (its element list,
generators, identity test and composition) and its action on angles, the
grouping of image rows by their bytes that the group scan's coset rule
is checked against, the mask-based pair mirror, the full chord matrix,
the defect of the exact quadratic mass expansion, the angle Hessian
with its cosines and the bound that the package's chord form keeps to
it, and the central-configuration residuals taken straight from planar
positions, which ``verify_cc`` (from angles) is checked against. The
package never imports this.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from cocircular import (TAU, AngleConfiguration, AuxiliaryFunctional, CCReport,
                        CocircularError, CollisionError, DimensionError,
                        DomainError, GroupElement, MassVector, pair_weight_matrix)
from cocircular.geometry import _check_gaps, _check_pinned, _chords
from cocircular.potential import _check_alpha, _check_finite, _pow

_EDGE = 1e-6
_BOX_SHRINK = 4.0


class OracleScaleError(CocircularError):
    """Brute-force oracle refused: grid dimensionality too large."""


@dataclass(frozen=True)
class GridSpec:
    """Points per angle dimension and number of box refinements."""

    resolution: int = 64
    refinement_rounds: int = 6

    def __post_init__(self):
        if self.resolution < 8:
            raise DomainError(f"resolution must be >= 8, got {self.resolution}")
        if self.refinement_rounds < 0:
            raise DomainError("refinement_rounds must be >= 0")


def _pair_table(aux, ma, mb, ga, gb):
    """f contribution of one body pair over the grid ga x gb."""
    r = np.abs(2.0 * np.sin(0.5 * (ga[:, None] - gb[None, :])))
    with np.errstate(divide="ignore"):
        w = r ** -aux.alpha + (r * r) / aux.k
    return ma * mb * w


def _axis_view(vec, axis, ndim):
    shape = [1] * ndim
    shape[axis] = vec.size
    return vec.reshape(shape)


def _pair_view(tab, ai, aj, ndim):
    shape = [1] * ndim
    shape[ai] = tab.shape[0]
    shape[aj] = tab.shape[1]
    return tab.reshape(shape)


def _grid_argmin(aux, m, axes):
    """Lexicographically first argmin of f over ordered grid tuples."""
    dims = len(axes)
    pinned = np.array([TAU])
    pin = [_pair_table(aux, m[i], m[-1], axes[i], pinned)[:, 0] for i in range(dims)]
    if dims == 1:
        return np.array([axes[0][int(np.argmin(pin[0]))]])
    pair = {(a, b): _pair_table(aux, m[a], m[b], axes[a], axes[b])
            for a in range(dims) for b in range(a + 1, dims)}
    inner_ndim = dims - 1
    inner_f = np.zeros((axes[1].size,) * inner_ndim)
    for a in range(1, dims):
        inner_f = inner_f + _axis_view(pin[a], a - 1, inner_ndim)
        for b in range(a + 1, dims):
            inner_f = inner_f + _pair_view(pair[(a, b)], a - 1, b - 1, inner_ndim)
    inner_ok = np.ones(inner_f.shape, dtype=bool)
    for a in range(1, dims - 1):
        lt = axes[a][:, None] < axes[a + 1][None, :]
        inner_ok &= _pair_view(lt, a - 1, a, inner_ndim)
    best_val = np.inf
    best_idx = None
    for i0 in range(axes[0].size):
        f = inner_f + pin[0][i0]
        for b in range(1, dims):
            f = f + _axis_view(pair[(0, b)][i0], b - 1, inner_ndim)
        ok = inner_ok & _axis_view(axes[1] > axes[0][i0], 0, inner_ndim)
        f = np.where(ok, f, np.inf)
        flat = int(np.argmin(f))
        val = float(f.flat[flat])
        if val < best_val:
            best_val = val
            best_idx = (i0,) + np.unravel_index(flat, f.shape)
    if best_idx is None or not np.isfinite(best_val):
        raise DomainError("no ordered grid point found in the search box")
    return np.array([axes[i][best_idx[i]] for i in range(dims)])


def brute_minimize(aux: AuxiliaryFunctional, masses: MassVector,
                   grid: GridSpec = GridSpec()) -> AngleConfiguration:
    """Grid-search minimizer over ordered reduced angles, n <= 5 only.

    Each refinement round shrinks the per-dimension search box by 4x
    around the incumbent, so the final spacing is far below the 1e-4
    agreement the tests ask for.
    """
    if masses.n > 5:
        raise OracleScaleError(
            f"brute_minimize handles n <= 5, got n = {masses.n}"
        )
    dims = masses.n - 1
    m = masses.masses
    lo = np.full(dims, _EDGE)
    hi = np.full(dims, TAU - _EDGE)
    best = None
    for _ in range(grid.refinement_rounds + 1):
        axes = [np.linspace(lo[i], hi[i], grid.resolution) for i in range(dims)]
        best = _grid_argmin(aux, m, axes)
        half = (hi - lo) / (2.0 * _BOX_SHRINK)
        lo = np.maximum(best - half, _EDGE)
        hi = np.minimum(best + half, TAU - _EDGE)
    return AngleConfiguration(np.append(best, TAU))


def finite_difference_gradient(f, point, step: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of a scalar function of a vector."""
    x = np.asarray(point, dtype=float)
    out = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = step
        out[i] = (f(x + e) - f(x - e)) / (2.0 * step)
    return out


def finite_difference_hessian(f, point, step: float = 2e-4) -> np.ndarray:
    """Central-difference Hessian, Richardson-extrapolated: (4 H(h) - H(2h)) / 3.

    H(h) is the four-point cross formula at step h. Its error is c h**2
    from truncation plus about u |f| / h**2 from rounding; the
    extrapolation cancels the h**2 term, so the step can be large enough
    for the rounding to stay small. A plain step of 1e-5 lost enough to
    rounding to miss a relative bound of 1e-5 about once in 6,000 draws.
    """
    x = np.asarray(point, dtype=float)
    n = x.size

    def cross(h):
        out = np.empty((n, n))
        for i in range(n):
            ei = np.zeros_like(x)
            ei[i] = h
            for j in range(i, n):
                ej = np.zeros_like(x)
                ej[j] = h
                val = (f(x + ei + ej) - f(x + ei - ej)
                       - f(x - ei + ej) + f(x - ei - ej)) / (4.0 * h * h)
                out[i, j] = val
                out[j, i] = val
        return out

    return (4.0 * cross(step) - cross(2.0 * step)) / 3.0


def reduced_coordinates(config: AngleConfiguration) -> np.ndarray:
    """Free coordinates (t_1, ..., t_{n-1}) of a pinned configuration."""
    _check_pinned(config)
    return config.angles[:-1].copy()


def angles_from_reduced(x: np.ndarray) -> AngleConfiguration:
    """Inverse of reduced_coordinates: append the pinned angle 2*pi."""
    x = np.asarray(x, dtype=float)
    return AngleConfiguration(np.append(x, TAU))


def elements(n: int) -> list[GroupElement]:
    """All 2n elements, cyclic part first, then the reflections.

    Element e is shift**(e % n) * reflection**(e // n), the order of the
    rows the exclusion scan decodes.
    """
    return [GroupElement(h, l, n) for l in (0, 1) for h in range(n)]


def distinct_rows(rows: np.ndarray) -> tuple[list[int], list[int]]:
    """The first of ``rows`` with each distinct bytes, and each row's place among them.

    Equal images of m give equal rows of g m - m; the group scan names
    the repeats from m's stabilizer instead of reading the rows.
    """
    slot, picks, inverse = {}, [], []
    for i, row in enumerate(rows):
        j = slot.setdefault(row.tobytes(), len(picks))
        if j == len(picks):
            picks.append(i)
        inverse.append(j)
    return picks, inverse


def identity(n: int) -> GroupElement:
    return GroupElement(0, 0, n)


def shift(n: int) -> GroupElement:
    return GroupElement(1, 0, n)


def reflection(n: int) -> GroupElement:
    return GroupElement(0, 1, n)


def is_identity(g: GroupElement) -> bool:
    return g.h == 0 and g.l == 0


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """g applied after h (matrix order)."""
    if g.n != h.n:
        raise DimensionError("group elements act on different label counts")
    sign = -1 if g.l else 1
    return GroupElement(g.h + sign * h.h, g.l + h.l, g.n)


def act_on_angles(g: GroupElement, config: AngleConfiguration) -> AngleConfiguration:
    """Affine angle action paired with the mass permutation.

    The shift maps t to (t_2 - t_1, ..., t_n - t_1, 2*pi); the reflection
    maps t to (2*pi - t_{n-1}, ..., 2*pi - t_1, 2*pi). Both preserve all
    chords, so the functional is invariant under the simultaneous action
    on masses and angles.
    """
    if g.n != config.n:
        raise DimensionError(f"group on {g.n} labels, {config.n} angles")
    _check_pinned(config)
    t = config.angles
    if g.l:
        t = np.concatenate([TAU - t[-2::-1], [TAU]])
    for _ in range(g.h):
        t = np.concatenate([t[1:] - t[0], [TAU]])
    return AngleConfiguration(t)


def mirror(n: int, upper: np.ndarray, lower: np.ndarray, out=None) -> np.ndarray:
    """n x n matrix with ``upper`` above, ``lower`` below and zeros on the diagonal.

    The reference for ``potential._mirror``'s gather: entry p of ``upper``
    is written at (j_p, k_p) through the strict upper-triangle mask and
    entry p of ``lower`` at (k_p, j_p) through the same mask on the
    transposed view. A reused ``out`` must be C-contiguous.
    """
    mask = np.zeros((n, n), dtype=bool)
    mask[np.triu_indices(n, 1)] = True
    if out is None:
        out = np.zeros((n, n))
    else:
        out.reshape(-1)[:: n + 1] = 0.0
    out[mask] = upper
    out.T[mask] = lower
    return out


def chord_matrix(config: AngleConfiguration) -> np.ndarray:
    """Pairwise chords r_jk = |2 sin((t_j - t_k)/2)|, zero diagonal.

    The chords of the pairs ``np.triu_indices(n, 1)`` lists, through the
    package's one chord formula ``geometry._chords``, written into the
    matrix by the masked ``mirror``; no pair index map or gather of the
    package takes part.
    """
    _check_gaps(config)
    j, k = np.triu_indices(config.n, 1)
    t = config.angles
    ru = _chords(t[j] - t[k])
    return mirror(config.n, ru, ru)


def hessian_theta(aux: AuxiliaryFunctional, masses: MassVector,
                  config: AngleConfiguration) -> np.ndarray:
    """Angle Hessian with c2 = cos(du/2)**2 taken by the cosine.

    The formula the package's ``_hessian_theta`` gives with c2 formed
    from the chord instead: the same operations on the packed pairs
    ``np.triu_indices(n, 1)`` lists, with the package's chord formula
    and chord power, so that the two differ only through c2.
    """
    n, t, m, a = config.n, config.angles, masses.masses, aux.alpha
    j, k = np.triu_indices(n, 1)
    du = t[j] - t[k]
    c2 = np.cos(0.5 * du) ** 2
    r_a2 = _pow(_chords(du), -(a + 2.0))
    off = m[j] * m[k] * (-a * (1.0 + a * c2) * r_a2 + (2.0 - 4.0 * c2) / aux.k)
    h = mirror(n, off, off)
    h.reshape(-1)[:: n + 1] = -np.add.reduce(h, axis=1)
    return h


def hessian_bound(aux: AuxiliaryFunctional, masses: MassVector,
                  config: AngleConfiguration) -> np.ndarray:
    """Per-entry bound on |package Hessian - ``hessian_theta``|.

    The bound of ``potential._hessian_theta``'s docstring: off the
    diagonal m_j m_k ((a**2 r_a2 + 4/k) 7u + 2 gamma_6 (a (1 + a) r_a2 + 2/k)),
    on it the sum of its row's bounds plus gamma_(n-1) times both rows'
    absolute sums, the package's bounded by the cosine form's plus the
    bounds.
    """
    n, t, m, a = config.n, config.angles, masses.masses, aux.alpha
    u = 2.0 ** -53
    gamma_6, gamma_sum = 6.0 * u / (1.0 - 6.0 * u), (n - 1) * u / (1.0 - (n - 1) * u)
    j, k = np.triu_indices(n, 1)
    r_a2 = _pow(_chords(t[j] - t[k]), -(a + 2.0))
    off = m[j] * m[k] * ((a * a * r_a2 + 4.0 / aux.k) * 7.0 * u
                         + 2.0 * gamma_6 * (a * (1.0 + a) * r_a2 + 2.0 / aux.k))
    bound = mirror(n, off, off)
    rows = np.abs(hessian_theta(aux, masses, config))
    rows.reshape(-1)[:: n + 1] = 0.0
    bound.reshape(-1)[:: n + 1] = (bound.sum(axis=1) * (1.0 + gamma_sum)
                                   + 2.0 * gamma_sum * rows.sum(axis=1))
    return bound


def taylor_identity_check(aux: AuxiliaryFunctional, masses_cc: MassVector,
                          config_cc: AngleConfiguration,
                          y: MassVector) -> float:
    """Residual of the exact quadratic expansion at a verified solution.

    For sum-preserving y the first-order term drops (the mass gradient is
    constant there), leaving f(y) - f(m) = (y - m)^T W (y - m) / 2; the
    returned value is the absolute defect of that identity.
    """
    if y.n != masses_cc.n:
        raise DimensionError(f"{y.n} masses in y but {masses_cc.n} at the solution")
    total = masses_cc.total_mass
    if abs(y.total_mass - total) > 1e-9 * max(1.0, total):
        raise DomainError(f"sum mismatch: {y.total_mass} versus {total}")
    # reference_potential imports this module
    from reference_potential import f_k_value

    d = y.masses - masses_cc.masses
    lhs = f_k_value(aux, y, config_cc) - f_k_value(aux, masses_cc, config_cc)
    return float(abs(lhs - 0.5 * (d @ pair_weight_matrix(aux, config_cc) @ d)))


def verify_definition_cc(alpha: float, masses: MassVector, positions,
                         tol: float = 1e-9) -> CCReport:
    """The residuals of ``verify_cc``, straight from planar positions.

    Positions must be finite and sit on the unit circle to within 1e-9;
    anything else raises ``DomainError``. The tangential and radial
    residuals are the imaginary and real parts of the planar force balance
    taken against each body's direction, summed over full n x n matrices,
    so the report agrees with ``verify_cc`` on matching inputs. Alpha,
    tol and overflowing residuals are refused as ``verify_cc`` refuses
    them.
    """
    alpha = _check_alpha(alpha)
    if not tol >= 0.0:
        raise DomainError(f"tol must be a nonnegative number, got {tol}")
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
    w_t = r ** -(alpha + 2.0)
    np.fill_diagonal(w_t, 0.0)
    w_r = r ** -alpha
    np.fill_diagonal(w_r, 0.0)
    radial = w_r @ m
    tangential = float(np.max(np.abs((sin_jk * w_t) @ m)))
    spread = float(np.max(radial) - np.min(radial))
    lam = float(np.mean(radial))
    _check_finite(alpha, (tangential, spread, lam, center), w_t, w_r)
    scaled = tol * masses.total_mass
    ok = tangential <= scaled and spread <= scaled and center <= tol
    return CCReport(tangential, spread, center, lam, bool(ok), tol)
