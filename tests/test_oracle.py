import numpy as np
import pytest

from cocircular import (
    AuxiliaryFunctional,
    DomainError,
    MassVector,
    minimize_f_k,
    regular_ngon,
)
from oracle import (
    GridSpec,
    OracleScaleError,
    brute_minimize,
    finite_difference_gradient,
    finite_difference_hessian,
)
from reference_potential import f_k_value


def test_grid_search_agrees_with_newton():
    aux = AuxiliaryFunctional(1.0)
    cases = [
        np.array([1.0, 1.0, 2.0]),
        np.array([1.0, 2.0, 3.0]),
        np.array([0.5, 1.0, 1.0, 2.0]),
        np.array([1.0, 1.0, 1.0, 1.0]),
    ]
    for raw in cases:
        m = MassVector(raw)
        coarse = brute_minimize(aux, m)
        res = minimize_f_k(aux, m)
        assert np.max(np.abs(coarse.angles - res.theta_m.angles)) < 1e-4
        f_coarse = f_k_value(aux, m, coarse)
        assert f_coarse >= res.f_value - 1e-12
        assert f_coarse - res.f_value < 1e-8


def test_grid_search_equal_masses_finds_triangle():
    cfg = brute_minimize(AuxiliaryFunctional(1.0), MassVector(np.ones(3)))
    assert np.max(np.abs(cfg.angles - regular_ngon(3).angles)) < 1e-4


def test_grid_search_scale_limit():
    with pytest.raises(OracleScaleError):
        brute_minimize(AuxiliaryFunctional(1.0), MassVector(np.ones(6)))


def test_grid_spec_validation():
    with pytest.raises(DomainError):
        GridSpec(resolution=7)
    with pytest.raises(DomainError):
        GridSpec(refinement_rounds=-1)
    coarse = GridSpec(resolution=16, refinement_rounds=8)
    cfg = brute_minimize(AuxiliaryFunctional(1.0),
                         MassVector(np.array([1.0, 1.0, 2.0])), coarse)
    res = minimize_f_k(AuxiliaryFunctional(1.0),
                       MassVector(np.array([1.0, 1.0, 2.0])))
    assert np.max(np.abs(cfg.angles - res.theta_m.angles)) < 1e-3


def test_finite_differences_on_polynomial():
    # cubic with known derivatives: exact to truncation order
    a = np.array([2.0, -1.0, 0.5])

    def poly(x):
        return float(a @ x + x[0] * x[1] * x[2] + x[2] ** 3)

    x0 = np.array([0.3, -0.7, 1.1])
    grad = a + np.array([x0[1] * x0[2], x0[0] * x0[2], x0[0] * x0[1]])
    grad[2] += 3.0 * x0[2] ** 2
    hess = np.array([
        [0.0, x0[2], x0[1]],
        [x0[2], 0.0, x0[0]],
        [x0[1], x0[0], 6.0 * x0[2]],
    ])
    assert np.max(np.abs(finite_difference_gradient(poly, x0) - grad)) < 1e-8
    assert np.max(np.abs(finite_difference_hessian(poly, x0) - hess)) < 1e-5


def test_finite_differences_exact_on_quadratic():
    q = np.array([[2.0, 0.5], [0.5, 1.0]])

    def quad(x):
        return float(0.5 * x @ q @ x)

    x0 = np.array([0.4, -0.2])
    assert np.max(np.abs(finite_difference_gradient(quad, x0) - q @ x0)) < 1e-9
    assert np.max(np.abs(finite_difference_hessian(quad, x0) - q)) < 1e-6
