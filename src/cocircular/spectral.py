"""Criterion matrices, the quadratic expansion identity, and spectra.

The pair-weight matrix W (zero diagonal) is the mass-space Hessian of the
auxiliary functional: y^T W y / 2 reproduces the functional with y in
place of the masses. Shifting it to C J - W with C = 2 u_alpha / M**2 +
2/k yields a matrix that annihilates the mass vector at a solution of the
central-configuration equations and is positive semidefinite whenever the
normalized potential 2**(alpha+1) u_alpha / M**2 stays below 1 + alpha/4.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionError, DomainError, UnsupportedExponent
from .geometry import TAU, AngleConfiguration, MassVector, _chords, regular_ngon
from .potential import (AuxiliaryFunctional, _f_value, _frame, _mass_pairs,
                        _pair_weights, _u_sums, _weights)
from .scanner import condition_threshold


@dataclass(frozen=True, eq=False)
class CriterionMatrix:
    """Rank-one shift C J - W with the normalized potential alongside."""

    hcal: np.ndarray
    u_ratio: float
    threshold: float


@dataclass(frozen=True, eq=False)
class CriterionVerdict:
    """Spectral exclusion verdict with the diagnostics behind it.

    ``offdiag_max``, ``kernel_residual`` and the two smallest eigenvalues
    describe the mass-weighted criterion matrix diag(m) hcal diag(m);
    at a centered co-circular solution with the condition satisfied it is
    diagonally dominant and positive semidefinite with kernel (1, ..., 1).
    """

    excluded: bool
    u_ratio: float
    threshold: float
    condition_holds: bool
    masses_equal: bool
    margin: float
    offdiag_max: float
    kernel_residual: float
    min_eigenvalue: float
    second_eigenvalue: float


def build_matrices(aux: AuxiliaryFunctional, masses: MassVector,
                   config: AngleConfiguration) -> CriterionMatrix:
    """Criterion matrix C J - W at one (m, t) point.

    W is ``pair_weight_matrix(aux, config)``; it and u_alpha come from one
    build of the chords.
    """
    m, _, ru = _frame(masses, config)
    w = _weights(aux, m.size, ru)
    u = _u_sums(_mass_pairs(m)[2], ru, aux.alpha)[0]
    total = masses.total_mass
    c = 2.0 * u / total ** 2 + 2.0 / aux.k
    hcal = c * np.ones_like(w) - w
    u_ratio = 2.0 ** (aux.alpha + 1.0) * u / total ** 2
    return CriterionMatrix(hcal, u_ratio, condition_threshold(aux.alpha))


def taylor_identity_check(aux: AuxiliaryFunctional, masses_cc: MassVector,
                          config_cc: AngleConfiguration,
                          y: MassVector) -> float:
    """Residual of the exact quadratic expansion at a verified solution.

    For sum-preserving y the first-order term drops (the mass gradient is
    constant there), leaving f(y) - f(m) = (y - m)^T W (y - m) / 2; the
    returned value is the absolute defect of that identity. W and both
    values come from one build of the chords.
    """
    if y.n != masses_cc.n:
        raise DimensionError(f"{y.n} masses in y but {masses_cc.n} at the solution")
    total = masses_cc.total_mass
    if abs(y.total_mass - total) > 1e-9 * max(1.0, total):
        raise DomainError(
            f"sum mismatch: {y.total_mass} versus {total}"
        )
    m, _, ru = _frame(masses_cc, config_cc)
    w = _weights(aux, m.size, ru)
    d = y.masses - m
    lhs = (_f_value(aux, _mass_pairs(y.masses)[2], ru)
           - _f_value(aux, _mass_pairs(m)[2], ru))
    return float(abs(lhs - 0.5 * (d @ w @ d)))


def criterion_verdict(aux: AuxiliaryFunctional, masses: MassVector,
                      config: AngleConfiguration) -> CriterionVerdict:
    """Spectral exclusion test at one configuration.

    Unequal masses are excluded whenever the normalized potential
    2**(alpha+1) u_alpha / M**2 stays within 1 + alpha/4; equal masses
    satisfy the equations at the regular polygon, so the same condition
    is then an admissibility statement rather than an exclusion.
    """
    cm = build_matrices(aux, masses, config)
    m = masses.masses
    weighted = np.outer(m, m) * cm.hcal
    eigs = np.linalg.eigvalsh(weighted)
    off = weighted[~np.eye(masses.n, dtype=bool)]
    masses_equal = bool(np.ptp(m) <= 1e-12 * np.max(m))
    condition = bool(cm.u_ratio <= cm.threshold)
    return CriterionVerdict(
        excluded=bool(condition and not masses_equal),
        u_ratio=cm.u_ratio,
        threshold=cm.threshold,
        condition_holds=condition,
        masses_equal=masses_equal,
        margin=float(cm.threshold - cm.u_ratio),
        offdiag_max=float(np.max(off)),
        kernel_residual=float(np.max(np.abs(weighted @ np.ones(masses.n)))),
        min_eigenvalue=float(eigs[0]),
        second_eigenvalue=float(eigs[1]),
    )


def circulant_spectrum(aux: AuxiliaryFunctional, n: int) -> np.ndarray:
    """Closed-form spectrum of the equal-mass interaction matrix.

    At the regular n-gon the matrix W is circulant, so eigenvalue k is the
    cosine transform of the first row and eigenvector k the k-th
    root-of-unity vector (ξ_k, ξ_k**2, ..., ξ_k**n)/sqrt(n) with
    ξ_k = exp(2 pi i k / n). The first row is built from the n - 1 chords
    to body 0 alone. Eigenvalues come back in index order with the
    all-ones direction first. Raises ``UnsupportedExponent`` when the
    first row overflows a double.
    """
    t = regular_ngon(n).angles
    n = t.size
    row = np.concatenate(([0.0], _pair_weights(aux, _chords(t[0] - t[1:]))))
    if not np.isfinite(row).all():
        raise UnsupportedExponent(f"W overflows at n = {n}, alpha = {aux.alpha}")
    j = np.arange(n)
    return np.sum(row * np.cos((TAU * j)[:, None] * j / n), axis=1)
