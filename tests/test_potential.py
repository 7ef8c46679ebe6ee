import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cocircular import (
    TAU,
    AngleConfiguration,
    AuxiliaryFunctional,
    CollisionError,
    DimensionError,
    DomainError,
    KTooSmall,
    MassVector,
    UnsupportedExponent,
    circulant_spectrum,
    grad_theta_f_k,
    k_min,
    pair_weight_matrix,
    regular_ngon,
)
from oracle import (angles_from_reduced, finite_difference_gradient,
                    finite_difference_hessian, reduced_coordinates)
from conftest import ordered_angles, random_masses
from reference_potential import f_k_value, grad_mass_f_k, hessian_theta_f_k, u_beta

TRIANGLE = regular_ngon(3)
UNIT3 = MassVector(np.ones(3))


def test_k_min_values():
    assert k_min(1.0) == 16.0
    assert k_min(2.0) == 16.0
    assert abs(k_min(2.5) - 2.0**5.5 / 2.5) < 1e-14


def test_auxiliary_functional_validation():
    assert AuxiliaryFunctional(1.0).k == 16.0  # tight default
    assert AuxiliaryFunctional(1.0, 32.0).k == 32.0
    with pytest.raises(KTooSmall):
        AuxiliaryFunctional(1.0, 15.9)
    with pytest.raises(UnsupportedExponent):
        AuxiliaryFunctional(0.0)
    with pytest.raises(UnsupportedExponent):
        AuxiliaryFunctional(-1.0)
    for k in (float("nan"), "x", float("inf")):
        with pytest.raises(DomainError, match="^k must be a finite number$"):
            AuxiliaryFunctional(1.0, k)
    # below alpha of about 4.45e-308 the quotient 2**(3 + alpha)/alpha
    # passes the largest double, and no k is admissible
    for alpha in (1e-320, 4.45e-308):
        with pytest.raises(UnsupportedExponent,
                           match=r"^2\*\*\(3 \+ alpha\)/alpha overflows at alpha = "):
            AuxiliaryFunctional(alpha)
    assert math.isfinite(AuxiliaryFunctional(4.5e-308).k)


def test_u_beta_frozen_values():
    assert abs(u_beta(1.0, UNIT3, TRIANGLE) - np.sqrt(3.0)) < 1e-14
    # square: four chords of squared length 2, two of squared length 4
    assert abs(u_beta(-2.0, MassVector(np.ones(4)), regular_ngon(4)) - 16.0) < 1e-12
    pair = AngleConfiguration(np.array([np.pi, TAU]))
    assert abs(u_beta(1.0, MassVector(np.array([1.0, 2.0])), pair) - 1.0) < 1e-15


def test_u_beta_rejects_log_case():
    with pytest.raises(UnsupportedExponent):
        u_beta(0.0, UNIT3, TRIANGLE)


def test_u_minus_two_matches_cosine_form():
    rng = np.random.default_rng(5)
    m = random_masses(rng, 6)
    cfg = ordered_angles(rng, 6)
    t = cfg.angles
    direct = sum(
        m.masses[j] * m.masses[k] * (2.0 - 2.0 * np.cos(t[j] - t[k]))
        for j in range(6)
        for k in range(j + 1, 6)
    )
    assert abs(u_beta(-2.0, m, cfg) - direct) < 1e-12 * abs(direct)


def test_f_k_frozen_values():
    aux = AuxiliaryFunctional(1.0, 16.0)
    assert abs(f_k_value(aux, MassVector(np.ones(4)), regular_ngon(4))
               - (2.0 * np.sqrt(2.0) + 2.0)) < 1e-14
    assert abs(f_k_value(aux, UNIT3, TRIANGLE) - (np.sqrt(3.0) + 9.0 / 16.0)) < 1e-14
    assert abs(f_k_value(AuxiliaryFunctional(2.0, 16.0), UNIT3, TRIANGLE)
               - 1.5625) < 1e-14


def test_grad_theta_zero_at_ngon():
    for n in (3, 6, 10):
        for alpha in (0.5, 1.0, 2.0):
            g = grad_theta_f_k(AuxiliaryFunctional(alpha), MassVector(np.ones(n)),
                               regular_ngon(n))
            assert np.max(np.abs(g)) < 1e-12


def test_grad_theta_frozen_asymmetric_case():
    aux = AuxiliaryFunctional(1.0, 16.0)
    g = grad_theta_f_k(aux, MassVector(np.array([1.0, 1.0, 2.0])), TRIANGLE)
    np.testing.assert_allclose(
        g, [-0.058413491193612034, 0.058413491193611701, 0.0],
        rtol=0, atol=1e-12,
    )


def test_grad_mass_frozen_values():
    aux = AuxiliaryFunctional(1.0, 16.0)
    pair = AngleConfiguration(np.array([np.pi, TAU]))
    np.testing.assert_allclose(
        grad_mass_f_k(aux, MassVector(np.ones(2)), pair), [0.75, 0.75],
        rtol=0, atol=1e-15,
    )
    g = grad_mass_f_k(aux, MassVector(np.array([1.0, 1.0, 2.0])), TRIANGLE)
    np.testing.assert_allclose(
        g, [2.2945508075688772, 2.2945508075688772, 1.5297005383792515],
        rtol=1e-15, atol=0,
    )


def test_grad_mass_equal_at_ngon():
    g = grad_mass_f_k(AuxiliaryFunctional(1.5), MassVector(np.ones(8)),
                      regular_ngon(8))
    assert np.ptp(g) <= 1e-12


def test_collision_raises():
    cfg = AngleConfiguration(np.array([1.0, 1.0 + 1e-13, TAU]))
    with pytest.raises(CollisionError):
        grad_theta_f_k(AuxiliaryFunctional(1.0), UNIT3, cfg)
    with pytest.raises(CollisionError):
        pair_weight_matrix(AuxiliaryFunctional(1.0), cfg)


def test_grad_theta_refuses_mismatched_lengths():
    with pytest.raises(DimensionError, match="^8 masses but 9 angles$"):
        grad_theta_f_k(AuxiliaryFunctional(1.0), MassVector(np.ones(8)), regular_ngon(9))


@given(st.integers(0, 2**32 - 1), st.integers(3, 8),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_translation_invariance(seed, n, alpha):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(alpha)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)
    # rotate every body by the same c < 0, staying inside (0, 2*pi]
    c = -rng.uniform(0.0, 0.9) * cfg.angles[0]
    shifted = AngleConfiguration(cfg.angles + c)
    f0 = f_k_value(aux, m, cfg)
    f1 = f_k_value(aux, m, shifted)
    assert abs(f1 - f0) <= 1e-12 * abs(f0)


@given(st.integers(0, 2**32 - 1), st.integers(3, 8),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_grad_theta_matches_finite_differences(seed, n, alpha):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(alpha)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)

    def f(x):
        return f_k_value(aux, m, angles_from_reduced(x))

    fd = finite_difference_gradient(f, reduced_coordinates(cfg))
    g = grad_theta_f_k(aux, m, cfg)[:-1]
    scale = max(1.0, float(np.max(np.abs(fd))))
    assert np.max(np.abs(g - fd)) <= 1e-6 * scale
    # rotational freedom: full gradient sums to zero
    assert abs(np.sum(grad_theta_f_k(aux, m, cfg))) <= 1e-12 * scale


@given(st.integers(0, 2**32 - 1), st.integers(3, 8),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=40, deadline=None)
def test_grad_mass_matches_finite_differences(seed, n, alpha):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(alpha)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)

    def f(y):
        return f_k_value(aux, MassVector(y), cfg)

    fd = finite_difference_gradient(f, m.masses)
    g = grad_mass_f_k(aux, m, cfg)
    assert np.max(np.abs(g - fd)) <= 1e-6 * max(1.0, float(np.max(np.abs(fd))))


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]))
# a plain step of 1e-5 gave |H - FD| = 2.13e-5 here, against a bound of 1.99e-5
@example(seed=192, alpha=0.5)
@settings(max_examples=25, deadline=None)
def test_hessian_matches_finite_differences(seed, alpha):
    rng = np.random.default_rng(seed)
    n = 5
    aux = AuxiliaryFunctional(alpha)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)

    def f(x):
        return f_k_value(aux, m, angles_from_reduced(x))

    fd = finite_difference_hessian(f, reduced_coordinates(cfg))
    h = hessian_theta_f_k(aux, m, cfg)[:-1, :-1]
    assert np.max(np.abs(h - fd)) <= 1e-5 * max(1.0, float(np.max(np.abs(fd))))


@given(st.integers(0, 2**32 - 1), st.integers(3, 8),
       st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=60, deadline=None)
def test_hessian_structure(seed, n, alpha):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(alpha)  # tight K
    h = hessian_theta_f_k(aux, random_masses(rng, n), ordered_angles(rng, n))
    np.testing.assert_array_equal(h, h.T)
    assert np.max(np.abs(h.sum(axis=1))) <= 1e-11 * max(1.0, np.abs(h).max())
    off = h[~np.eye(n, dtype=bool)]
    assert np.all(off <= 0.0)  # diagonal dominance with nonpositive couplings


@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
@settings(max_examples=40, deadline=None)
def test_pair_weights_reproduce_value(seed, n):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(1.0)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)
    w = pair_weight_matrix(aux, cfg)
    quad = 0.5 * float(m.masses @ w @ m.masses)
    f = f_k_value(aux, m, cfg)
    assert abs(quad - f) <= 1e-12 * abs(f)
    np.testing.assert_allclose(w @ m.masses, grad_mass_f_k(aux, m, cfg),
                               rtol=1e-12, atol=1e-14)


def test_pair_weights_minimized_at_diameter():
    # r**-alpha + r**2/K decreases toward r = 2 for K at the tight value
    aux = AuxiliaryFunctional(1.0)
    r = np.linspace(0.05, 2.0, 500)
    phi = r**-1.0 + r**2 / aux.k
    assert np.all(np.diff(phi) < 0.0)
    assert abs(phi[-1] - (0.5 + 4.0 / 16.0)) < 1e-12


_PUBLIC = {
    "grad_theta_f_k": grad_theta_f_k,
    "pair_weight_matrix": lambda aux, m, cfg: pair_weight_matrix(aux, cfg),
}


@pytest.mark.parametrize("name", list(_PUBLIC))
def test_overflowing_chord_powers_raise_unsupported_exponent(name):
    # r**-1000 overflows at 50 equal masses; the typed error comes with
    # no numpy warning ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedExponent,
                           match=r"^chord powers overflow at alpha = 1000\.0$"):
            _PUBLIC[name](AuxiliaryFunctional(1000.0), MassVector(np.ones(50)),
                          regular_ngon(50))


@pytest.mark.parametrize("name", ["grad_theta_f_k"])
def test_overflowing_mass_products_raise_domain_error(name):
    # m_j m_k = 1e400 overflows a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError,
                           match="^the masses overflow a mass-weighted pair sum$"):
            _PUBLIC[name](AuxiliaryFunctional(1.0), MassVector(np.full(6, 1e200)),
                          regular_ngon(6))


def test_overflowing_spectrum_row_warns_nothing():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedExponent):
            circulant_spectrum(AuxiliaryFunctional(1000.0), 1000)
