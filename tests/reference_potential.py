"""Reference potential: each quantity rebuilds its own full chord matrix.

These are the straightforward bodies the package's packed pair frame
replaces: u_beta builds the n x n chords once per exponent, the gradient,
the Hessian, W and the CC residuals each build them again on all n**2
entries, and the minimizer calls the public functions at every point. The
chord builder and the minimizer's feasible-step bound are the package's
former ones, kept here so the reference shares neither the package's
chord code nor its line search. The tests compare the package with these
bodies bit for bit; the package never imports this. The criterion matrix
C J - W of the paper's spectral test lives only here, built from these
bodies.

The circulant spectrum is the exception: the package transforms W's first
row by an FFT, which no cosine sum matches bit for bit. ``exact_row`` holds
that row to 40 digits, ``circulant_spectrum`` sums any row against cosines
of exact arguments, and the tests hold the package within
``spectrum_bound``, the bound its docstring derives.
"""

import ctypes
import math
from dataclasses import dataclass

import mpmath
import numpy as np

from cocircular import (
    AngleConfiguration,
    CCReport,
    CollisionError,
    ConvergenceFailure,
    DimensionError,
    DomainError,
    TAU,
    UnsupportedExponent,
    center_of_mass,
    condition_threshold,
)
from cocircular import minimizer
from cocircular.geometry import COLLISION_TOL
from cocircular.minimizer import _ARMIJO, _BOUNDARY_FRACTION, _DIAG_REG, _SHRINK, _W_FLOOR
from oracle import angles_from_reduced


@dataclass(frozen=True, eq=False)
class CriterionMatrix:
    """Rank-one shift C J - W with the normalized potential alongside."""

    hcal: np.ndarray
    u_ratio: float
    threshold: float


def _pow(base, expo):
    ei = int(round(expo))
    if expo == ei and 0 < abs(ei) <= 4:
        out = base
        for _ in range(abs(ei) - 1):
            out = out * base
        return 1.0 / out if ei < 0 else out
    return base ** expo


def chord_matrix(config):
    if config.min_gap() < COLLISION_TOL:
        raise CollisionError(
            f"two bodies are within {COLLISION_TOL} radians of each other"
        )
    t = config.angles
    r = np.abs(2.0 * np.sin(0.5 * (t[:, None] - t[None, :])))
    np.fill_diagonal(r, 0.0)
    np.clip(r, 0.0, 2.0, out=r)
    return r


def _check_lengths(masses, config):
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")


def _frames(masses, config):
    _check_lengths(masses, config)
    r = chord_matrix(config)
    np.fill_diagonal(r, 1.0)
    d = config.angles[:, None] - config.angles[None, :]
    return masses.masses, d, r


def u_beta(beta, masses, config):
    if beta == 0:
        raise UnsupportedExponent("beta = 0 (logarithmic potential) is not supported")
    _check_lengths(masses, config)
    r = chord_matrix(config)
    j, k = np.triu_indices(config.n, 1)
    m = masses.masses
    return float(np.sum(m[j] * m[k] * _pow(r[j, k], -float(beta))))


def f_k_value(aux, masses, config):
    return u_beta(aux.alpha, masses, config) + u_beta(-2.0, masses, config) / aux.k


def grad_theta_f_k(aux, masses, config):
    m, d, r = _frames(masses, config)
    w = aux.alpha * _pow(r, -(aux.alpha + 2.0)) - 2.0 / aux.k
    np.fill_diagonal(w, 0.0)
    return -(m * np.sum(m[None, :] * np.sin(d) * w, axis=1))


def hessian_theta_f_k(aux, masses, config):
    m, d, r = _frames(masses, config)
    a = aux.alpha
    # cos(d/2)**2 from the chord, as the package forms it
    c2 = 1.0 - r * r / 4.0
    # the diagonal's placeholder term, replaced below, may pass a double
    with np.errstate(over="ignore"):
        off = (m[:, None] * m[None, :]) * (
            -a * (1.0 + a * c2) * _pow(r, -(a + 2.0)) + (2.0 - 4.0 * c2) / aux.k
        )
    np.fill_diagonal(off, 0.0)
    h = 0.5 * (off + off.T)
    np.fill_diagonal(h, -np.sum(h, axis=1))
    return h


def grad_mass_f_k(aux, masses, config):
    _check_lengths(masses, config)
    return pair_weight_matrix(aux, config) @ masses.masses


def pair_weight_matrix(aux, config):
    r = chord_matrix(config)
    np.fill_diagonal(r, 1.0)
    w = _pow(r, -aux.alpha) + (r * r) / aux.k
    np.fill_diagonal(w, 0.0)
    return w


def build_matrices(aux, masses, config):
    """Criterion matrix C J - W with C = 2 u_alpha / M**2 + 2/k.

    At a solution of the central-configuration equations it annihilates
    the mass vector, and it is positive semidefinite whenever the
    normalized potential 2**(alpha+1) u_alpha / M**2 stays below
    1 + alpha/4.
    """
    w = pair_weight_matrix(aux, config)
    u = u_beta(aux.alpha, masses, config)
    total = masses.total_mass
    c = 2.0 * u / total ** 2 + 2.0 / aux.k
    hcal = c * np.ones_like(w) - w
    u_ratio = 2.0 ** (aux.alpha + 1.0) * u / total ** 2
    return CriterionMatrix(hcal, u_ratio, condition_threshold(aux.alpha))


def verify_cc(alpha, masses, config, tol=1e-9):
    m, d, r = _frames(masses, config)
    sin_jk = -np.sin(d)
    w_t = _pow(r, -(alpha + 2.0))
    np.fill_diagonal(w_t, 0.0)
    tangential = float(np.max(np.abs((sin_jk * w_t) @ m)))
    w_r = _pow(r, -alpha)
    np.fill_diagonal(w_r, 0.0)
    radial = w_r @ m
    spread = float(np.max(radial) - np.min(radial))
    lam = float(np.mean(radial))
    center = abs(center_of_mass(masses, config))
    scaled = tol * masses.total_mass
    ok = tangential <= scaled and spread <= scaled and center <= tol
    return CCReport(tangential, spread, center, lam, bool(ok), tol)


def _max_feasible_step(x: np.ndarray, d: np.ndarray) -> float:
    """Largest t keeping 0 < x_1 + t d_1 < ... < x_{n-1} + t d_{n-1} < 2*pi."""
    gaps = np.concatenate(([x[0]], np.diff(x), [TAU - x[-1]]))
    dgaps = np.concatenate(([d[0]], np.diff(d), [-d[-1]]))
    shrinking = dgaps < 0.0
    if not np.any(shrinking):
        return np.inf
    return float(np.min(gaps[shrinking] / -dgaps[shrinking]))


def mass_start(aux, masses):
    """The default start, one gap at a time: gap j grows as w_(j-1) + w_j.

    Only the powers come from one numpy call, as in the package, because
    numpy's vector pow and libm's may differ in the last bit.
    """
    m = masses.masses
    w = [max(x, _W_FLOOR) for x in ((m / m.max()) ** (1.0 / (aux.alpha + 1.0))).tolist()]
    ends, total = [], 0.0
    for j in range(masses.n):
        total += w[j - 1] + w[j]  # the first gap wraps from the last body
        ends.append(total)
    t = np.array([TAU * end / total for end in ends])
    t[-1] = TAU
    return AngleConfiguration(t)


def cholesky(a, b=None):
    """Whether the symmetric a factors as L L^T; b, if given, solved in a in place.

    As the package's loop does, LAPACK's dpotrf, or dposv with b, runs on
    one OpenBLAS thread where numpy bundles OpenBLAS, and np.linalg's
    Cholesky or solve elsewhere. Here LAPACK reads a C-ordered copy of a
    with lda = N, where the package reads its n x n Hessian's leading
    block in place at lda = n.
    """
    lapack = minimizer._LAPACK
    if lapack is None:
        try:
            if b is None:
                np.linalg.cholesky(a)
            else:
                b[:] = np.linalg.solve(a, b)
        except np.linalg.LinAlgError:
            return False
        return True
    a = np.array(a, order="C")
    size, info = ctypes.c_int64(len(a)), ctypes.c_int64()
    threads = lapack.get_threads()
    lapack.set_threads(1)
    try:
        if b is None:
            lapack.potrf(b"L", size, a.ctypes.data, size, info, 1)
        else:
            lapack.posv(b"L", size, ctypes.c_int64(1), a.ctypes.data, size, b.ctypes.data,
                        size, info, 1)
    finally:
        lapack.set_threads(threads)
    return info.value == 0


def minimize(aux, masses, grad_tol=1e-11, max_iter=200):
    """Damped Newton from the default start.

    Returns (angles, f, grad_norm, iterations). A ConvergenceFailure after
    max_iter steps, a failed factorization, a step that does not descend
    or a stalled line search carries that tuple of the last accepted
    iterate as its result, as the package's loop does.
    """
    n = masses.n
    if n == 2:
        cfg = AngleConfiguration(np.array([TAU / 2.0, TAU]))
        gnorm = float(abs(grad_theta_f_k(aux, masses, cfg)[0]))
        return cfg.angles, f_k_value(aux, masses, cfg), gnorm, 0
    cfg = mass_start(aux, masses)
    x = cfg.angles[:-1].copy()
    fx = f_k_value(aux, masses, cfg)
    gnorm = np.inf
    for iteration in range(max_iter + 1):
        gr = grad_theta_f_k(aux, masses, cfg)[:-1]
        with np.errstate(over="ignore"):
            gnorm = float(np.linalg.norm(gr))
        if np.isinf(gnorm):  # the squares pass a double: scale by max |gr|
            scale = float(np.abs(gr).max())
            gnorm = scale * float(np.linalg.norm(gr / scale))
        if gnorm <= grad_tol * abs(fx):
            if not cholesky(hessian_theta_f_k(aux, masses, cfg)[:-1, :-1]):
                raise ConvergenceFailure("reduced Hessian is not positive definite")
            return cfg.angles, fx, gnorm, iteration
        if iteration == max_iter:
            break
        hr = hessian_theta_f_k(aux, masses, cfg)[:-1, :-1]
        with np.errstate(over="ignore"):
            reg = _DIAG_REG * float(np.trace(hr)) / n
        if np.isinf(reg):  # the trace passes a double: sum it scaled by 2**-64
            reg = _DIAG_REG * float(np.add.reduce(np.diagonal(hr) * 2.0 ** -64)) / n * 2.0 ** 64
        step = -gr
        slope = float(gr @ step) if cholesky(hr + reg * np.eye(n - 1), step) else np.nan
        if not slope < 0.0:  # no step, or one that does not descend
            raise ConvergenceFailure(
                f"reduced Hessian is not positive definite at iteration {iteration}",
                (cfg.angles, fx, gnorm, iteration))
        t = min(1.0, _BOUNDARY_FRACTION * _max_feasible_step(x, step))
        slack = 4.0 * np.finfo(float).eps * abs(fx)
        accepted = False
        while t > 1e-18:
            xt = x + t * step
            try:
                cfg_t = angles_from_reduced(xt)
                # a trial within COLLISION_TOL of a collision is infeasible
                ft = f_k_value(aux, masses, cfg_t)
            except (DomainError, CollisionError):
                t *= _SHRINK
                continue
            if ft <= fx + _ARMIJO * t * slope + slack:
                accepted = True
                break
            t *= _SHRINK
        if not accepted:
            raise ConvergenceFailure("line search stalled",
                                     (cfg.angles, fx, gnorm, iteration))
        x, cfg, fx = xt, cfg_t, ft
    raise ConvergenceFailure(f"no convergence within {max_iter} Newton steps",
                             (cfg.angles, fx, gnorm, max_iter))


def exact_row(aux, n):
    """W's first row at the regular n-gon as 40-digit mpmath numbers.

    Entry j is w(r) = r**-alpha + r**2/k of the chord r = 2 sin(j pi / n),
    with alpha and k the doubles aux holds.
    """
    with mpmath.workdps(40):
        alpha, k = mpmath.mpf(aux.alpha), mpmath.mpf(aux.k)
        chords = (2 * mpmath.sin(mpmath.pi * j / n) for j in range(1, n // 2 + 1))
        half = [r ** -alpha + r * r / k for r in chords]
        return [mpmath.mpf(0), *half, *half[:(n - 1) // 2][::-1]]


def exact_eigenvalue(row, k):
    """Eigenvalue k of the circulant with first row row (mpmath numbers), to 40 digits."""
    n = len(row)
    with mpmath.workdps(40):
        return mpmath.fsum(w * mpmath.cos(2 * mpmath.pi * (j * k % n) / n)
                           for j, w in enumerate(row))


def circulant_spectrum(row):
    """Eigenvalues of the circulant with first row row (doubles), one
    ``math.fsum`` of row_j cos(2 pi ((j k) mod n) / n) per index k.

    Every argument lies in [0, 2 pi). Against the exact sums of row each
    eigenvalue is within 26u sum(|row|): the argument is within 2.4u of
    itself (``TAU``, the multiply and the divide), so 15.1u absolute;
    ``np.cos`` adds at most 4 ulp (8u), the product u and the sum u.
    """
    n = len(row)
    j = np.arange(n)
    products = np.asarray(row) * np.cos(TAU * (np.multiply.outer(j, j) % n) / n)
    return np.array([math.fsum(p) for p in products.tolist()])


def spectrum_bound(n, alpha, total):
    """The bound ``spectral.circulant_spectrum``'s docstring derives on each
    eigenvalue: u (11 alpha + 33 + 8 (1 + log2 n)) S, S the row's sum."""
    return 2.0 ** -53 * (11.0 * alpha + 33.0 + 8.0 * (1.0 + math.log2(n))) * total
