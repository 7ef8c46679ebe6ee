import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cocircular import (
    TAU,
    AngleConfiguration,
    AuxiliaryFunctional,
    CollisionError,
    DomainError,
    MassVector,
    UnsupportedExponent,
    act_on_masses,
    minimize_f_k,
    regular_ngon,
    verify_cc,
)
from conftest import ordered_angles, random_masses
from oracle import act_on_angles, elements, verify_definition_cc
from reference_potential import u_beta


def test_ngon_is_cc_and_lambda_matches_direct_sum():
    for n, alpha in ((3, 1.0), (6, 1.0), (5, 0.5), (8, 2.0)):
        m = MassVector(np.ones(n))
        rep = verify_cc(alpha, m, regular_ngon(n))
        assert rep.is_cc
        assert rep.tangential_residual < 1e-12
        assert rep.radial_spread < 1e-12
        assert rep.center_norm < 1e-12
        direct = sum(
            (1.0 / np.sin(j * np.pi / n)) ** alpha for j in range(1, n)
        ) / 2**alpha
        assert abs(rep.lambda_tilde - direct) < 1e-12
        # the common radial value is 2 U_alpha / M
        assert abs(rep.lambda_tilde
                   - 2.0 * u_beta(alpha, m, regular_ngon(n)) / n) < 1e-12


def test_lambda_tilde_frozen_hexagon():
    rep = verify_cc(1.0, MassVector(np.ones(6)), regular_ngon(6))
    assert abs(rep.lambda_tilde - (2.5 + 2.0 / np.sqrt(3.0))) < 1e-14


def test_one_heavy_minimizer_is_not_cc():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.array([1.0, 1.0, 1.0, 2.0]))
    res = minimize_f_k(aux, m)
    rep = verify_cc(1.0, m, res.theta_m)
    assert not rep.is_cc
    assert rep.radial_spread > rep.tolerance


def test_alternating_square_fails_radially():
    rep = verify_cc(1.0, MassVector(np.array([1.0, 2.0, 1.0, 2.0])),
                    regular_ngon(4))
    assert rep.tangential_residual < 1e-12  # symmetric placement
    assert abs(rep.radial_spread - (np.sqrt(2.0) - 0.5)) < 1e-12
    assert not rep.is_cc


def test_perturbed_ngon_rejected_by_both_verifiers():
    t = regular_ngon(5).angles.copy()
    t[1] += 0.01
    cfg = AngleConfiguration(t)
    m = MassVector(np.ones(5))
    assert not verify_cc(1.0, m, cfg).is_cc
    assert not verify_definition_cc(1.0, m, cfg.positions()).is_cc


def test_verifiers_agree_on_angle_parametrization():
    aux = AuxiliaryFunctional(1.0, 16.0)
    m = MassVector(np.array([1.0, 1.0, 2.0]))
    res = minimize_f_k(aux, m)
    a = verify_cc(1.0, m, res.theta_m)
    b = verify_definition_cc(1.0, m, res.theta_m.positions())
    assert a.is_cc == b.is_cc
    assert abs(a.tangential_residual - b.tangential_residual) < 1e-10
    assert abs(a.radial_spread - b.radial_spread) < 1e-10
    assert abs(a.center_norm - b.center_norm) < 1e-10
    assert abs(a.lambda_tilde - b.lambda_tilde) < 1e-10


def test_definition_verifier_validation():
    m = MassVector(np.ones(3))
    with pytest.raises(DomainError):
        verify_definition_cc(1.0, m, np.array([0.5 + 0j, 1j, -1j]))  # off circle
    with pytest.raises(DomainError):
        verify_definition_cc(1.0, m, np.array([1.0, np.nan, -1j]))
    with pytest.raises(CollisionError):
        q = np.exp(1j * np.array([1.0, 1.0 + 1e-14, 3.0]))
        verify_definition_cc(1.0, m, q)
    with pytest.raises(UnsupportedExponent):
        verify_definition_cc(-1.0, m, regular_ngon(3).positions())


@pytest.mark.parametrize("verify", ["angles", "positions"])
@pytest.mark.parametrize("alpha, masses, error", [
    (300.0, [1.0, 1.0, 1.0], UnsupportedExponent),  # r**-302 overflows at r = 1e-6
    (2.0, [5e307, 5e307, 5e307], DomainError),  # only the mass-weighted sums do
])
def test_non_finite_residuals_are_input_errors(verify, alpha, masses, error):
    m = MassVector(np.array(masses))
    cfg = AngleConfiguration(np.array([1.0, 1.000001, TAU]))
    if verify == "angles":
        with pytest.raises(error):
            verify_cc(alpha, m, cfg)
    else:
        # the oracle takes its powers with numpy's ** and warns on overflow
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
            verify_definition_cc(alpha, m, cfg.positions())


@pytest.mark.parametrize("alpha, masses, config, error", [
    (1.0, [1.0] * 5 + [1e308], regular_ngon(6), DomainError),  # a radial sum overflows
    (300.0, [1.0, 1.0, 1.0], AngleConfiguration(np.array([1.0, 1.000001, TAU])),
     UnsupportedExponent),
    (2.0, [5e307, 5e307, 5e307], AngleConfiguration(np.array([1.0, 1.000001, TAU])),
     DomainError),
])
def test_overflow_raises_the_typed_error_without_a_warning(alpha, masses, config, error):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            verify_cc(alpha, MassVector(np.array(masses)), config)


@pytest.mark.parametrize("verify", ["angles", "positions"])
def test_alpha_and_tolerance_checked_up_front(verify):
    m = MassVector(np.ones(4))
    square = regular_ngon(4)

    def run(alpha, tol=1e-9):
        if verify == "angles":
            return verify_cc(alpha, m, square, tol)
        return verify_definition_cc(alpha, m, square.positions(), tol)

    for alpha in (float("nan"), float("inf"), 0.0, -1.0):
        with pytest.raises(UnsupportedExponent):
            run(alpha)
    for tol in (float("nan"), -1.0):
        with pytest.raises(DomainError):
            run(1.0, tol)
    assert run(1).is_cc  # an integer alpha still passes


def test_tolerance_knob():
    t = regular_ngon(4).angles.copy()
    t[0] += 1e-6
    cfg = AngleConfiguration(t)
    m = MassVector(np.ones(4))
    assert not verify_cc(1.0, m, cfg, tol=1e-9).is_cc
    assert verify_cc(1.0, m, cfg, tol=1.0).is_cc


def test_verdict_ignores_mass_scale_on_squares():
    square = regular_ngon(4)
    tiny = MassVector(np.full(4, 1e-6))
    assert verify_cc(1.0, tiny, square).is_cc
    assert verify_definition_cc(1.0, tiny, square.positions()).is_cc
    t = square.angles.copy()
    t[0] += 1e-4
    bent = AngleConfiguration(t)
    heavy = MassVector(np.full(4, 1e5))
    assert not verify_cc(1.0, heavy, bent).is_cc
    assert not verify_definition_cc(1.0, heavy, bent.positions()).is_cc


def _rotated(masses, config, phi):
    """Rotate every angle by phi, wrap into (0, 2*pi] and relabel in order."""
    t = np.mod(config.angles + phi, TAU)
    t[t == 0.0] = TAU
    order = np.argsort(t)
    return MassVector(masses.masses[order]), AngleConfiguration(t[order])


@st.composite
def verdict_cases(draw):
    """Configurations whose residuals sit far from the tolerance either way:
    equal-mass polygons (is_cc), polygons bent by at least 1e-4 rad, and
    random masses at random angles or at their minimizer (not is_cc)."""
    n = draw(st.integers(3, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["polygon", "bent", "random", "minimizer"]))
    alpha = draw(st.sampled_from([0.5, 1.0, 3.0]))
    if kind == "polygon":
        return alpha, MassVector(np.ones(n)), regular_ngon(n)
    if kind == "bent":
        t = regular_ngon(n).angles.copy()
        t[rng.integers(n - 1)] += 10.0 ** rng.uniform(-4, -1)
        return alpha, MassVector(np.ones(n)), AngleConfiguration(t)
    m = random_masses(rng, n)
    if kind == "random":
        return alpha, m, ordered_angles(rng, n)
    return alpha, m, minimize_f_k(AuxiliaryFunctional(alpha), m).theta_m


# log10 of the mass scale: the ends of 1e-6..1e6 always, anything between
LOG_SCALES = st.sampled_from([-6.0, 6.0]) | st.floats(-6.0, 6.0)


@given(verdict_cases(), LOG_SCALES, st.floats(0.0, TAU))
@settings(max_examples=100, deadline=None)
def test_verdict_invariant_under_scale_and_rotation(case, log_s, phi):
    alpha, m, cfg = case
    base = verify_cc(alpha, m, cfg).is_cc
    scaled = MassVector(10.0 ** log_s * m.masses)
    assert verify_cc(alpha, scaled, cfg).is_cc == base
    assert verify_definition_cc(alpha, scaled, cfg.positions()).is_cc == base
    assert verify_cc(alpha, *_rotated(m, cfg, phi)).is_cc == base
    assert verify_definition_cc(alpha, m, np.exp(1j * phi) * cfg.positions()).is_cc == base


@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
@settings(max_examples=30, deadline=None)
def test_residuals_invariant_under_relabeling(seed, n):
    rng = np.random.default_rng(seed)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)
    base = verify_cc(1.0, m, cfg)
    for g in elements(n):
        rep = verify_cc(1.0, act_on_masses(g, m), act_on_angles(g, cfg))
        for field in ("tangential_residual", "radial_spread", "center_norm"):
            a, b = getattr(rep, field), getattr(base, field)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(b))


@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
@settings(max_examples=30, deadline=None)
def test_verifiers_agree_on_random_configurations(seed, n):
    rng = np.random.default_rng(seed)
    m = random_masses(rng, n)
    cfg = ordered_angles(rng, n)
    a = verify_cc(1.0, m, cfg)
    b = verify_definition_cc(1.0, m, cfg.positions())
    assert a.is_cc == b.is_cc
    scale = max(1.0, a.tangential_residual, a.radial_spread)
    assert abs(a.tangential_residual - b.tangential_residual) < 1e-10 * scale
    assert abs(a.radial_spread - b.radial_spread) < 1e-10 * scale


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [13, 26, 64, 128])
def test_verifiers_agree_beyond_the_property_sizes(n, alpha):
    rng = np.random.default_rng(n)
    m = random_masses(rng, n)
    cases = [(m, ordered_angles(rng, n, 0.25 / n)),
             (m, minimize_f_k(AuxiliaryFunctional(alpha), m).theta_m),
             (random_masses(rng, n), regular_ngon(n))]
    for masses, cfg in cases:
        a = verify_cc(alpha, masses, cfg)
        b = verify_definition_cc(alpha, masses, cfg.positions())
        assert a.is_cc == b.is_cc
        scale = max(1.0, a.tangential_residual, a.radial_spread)
        assert abs(a.tangential_residual - b.tangential_residual) < 1e-10 * scale
        assert abs(a.radial_spread - b.radial_spread) < 1e-10 * scale
