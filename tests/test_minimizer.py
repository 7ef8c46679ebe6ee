import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocircular.minimizer as minimizer
from cocircular import (
    TAU,
    AngleConfiguration,
    AuxiliaryFunctional,
    CollisionError,
    ConvergenceFailure,
    DimensionError,
    DomainError,
    GroupElement,
    MassVector,
    UnsupportedExponent,
    exclusion_verdicts,
    grad_theta_f_k,
    minimize_f_k,
    regular_ngon,
)
from cocircular.geometry import COLLISION_TOL
from conftest import certify_masses, lapack_array, ordered_angles, random_masses
from oracle import angles_from_reduced, reduced_coordinates
from reference_potential import f_k_value, hessian_theta_f_k


def test_equal_masses_return_ngon():
    for n in (3, 7, 12):
        for alpha in (0.5, 1.0, 2.0):
            res = minimize_f_k(AuxiliaryFunctional(alpha), MassVector(np.ones(n)))
            assert res.converged
            np.testing.assert_allclose(res.theta_m.angles, regular_ngon(n).angles,
                                       rtol=0, atol=1e-9)


def test_default_start_is_pinned_for_every_n():
    # 2*pi*n/n rounds past 2*pi at n = 13, 26, 47, ... and below it at
    # n = 11, 15, 22, ...; the default start must stay pinned at both
    aux = AuxiliaryFunctional(1.0)
    for n in range(2, 301):
        res = minimize_f_k(aux, MassVector(np.ones(n)))
        assert res.converged
        assert res.theta_m.angles[-1] == TAU
        np.testing.assert_allclose(res.theta_m.angles,
                                   TAU * np.arange(1, n + 1) / n,
                                   rtol=0, atol=1e-9)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0, 3.0])
@pytest.mark.parametrize("raw", [[1.0, 1.0], [1.0, 3.0], [1.0, 1e4]])
def test_two_bodies_at_default_k(raw, alpha):
    # at the tight k the two-body Hessian vanishes at the diameter, which is
    # still the unique minimizer; a start off the diameter must reach it too
    aux = AuxiliaryFunctional(alpha)
    m = MassVector(np.array(raw))
    for init in (None, AngleConfiguration(np.array([1.0, TAU]))):
        res = minimize_f_k(aux, m, init)
        assert res.converged
        assert np.array_equal(res.theta_m.angles, [np.pi, TAU])
        assert res.f_value == f_k_value(aux, m, res.theta_m)
        assert res.f_value < f_k_value(aux, m, AngleConfiguration(np.array([3.0, TAU])))


@pytest.mark.parametrize("n", [3, 5, 13, 26, 256, 1000])
def test_mass_start_of_equal_masses_is_the_regular_ngon(n):
    for mass in (1.0, 3.0, 1e-300, 1e300):
        for alpha in (0.5, 1.0, 3.0, 1e-3, 1e3):
            start = minimizer._mass_start(np.full(n, mass), alpha)
            assert start.angles.tobytes() == regular_ngon(n).angles.tobytes()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_mass_start_keeps_its_bits_under_power_of_two_scaling(alpha):
    rng = np.random.default_rng(41)
    for n in (3, 8, 40, 256):
        m = 10.0 ** rng.uniform(-3.0, 3.0, n)
        start = minimizer._mass_start(m, alpha).angles.tobytes()
        for k in (-900, -40, -1, 1, 40, 900):
            assert minimizer._mass_start(m * 2.0 ** k, alpha).angles.tobytes() == start


@pytest.mark.parametrize("alpha", [1e-3, 0.5, 1.0, 3.0, 1e3])
@pytest.mark.parametrize("n", [3, 8, 40, 1000])
def test_mass_start_is_pinned_and_interior_at_any_mass_ratio(n, alpha):
    # ratios down to 1e-300, and past it to 1e-600, where m / max m
    # underflows to 0; the floor on w keeps every gap at 2*pi*_W_FLOOR/n
    rng = np.random.default_rng(n)
    one_heavy = np.full(n, 1e-300)
    one_heavy[0] = 1.0
    past = np.full(n, 1e-300)
    past[n // 2] = 1e300
    for m in (one_heavy, 10.0 ** rng.uniform(-300.0, 0.0, n), past):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            t = minimizer._mass_start(m, alpha).angles
        gaps = np.diff(t, prepend=t[-1] - TAU)
        assert t[-1] == TAU
        assert gaps.min() >= max(COLLISION_TOL, 0.999 * TAU * minimizer._W_FLOOR / n)


def test_mass_start_needs_its_floor(monkeypatch):
    # without it two adjacent bodies 1e-300 as heavy as the rest start
    # within rounding of each other
    monkeypatch.setattr(minimizer, "_W_FLOOR", 0.0)
    with pytest.raises(DomainError, match="strictly increasing"):
        minimizer._mass_start(np.array([1.0, 1e-300, 1e-300, 1.0]), 1.0)


def test_default_start_is_the_mass_start(monkeypatch):
    # a solve allowed no step fails at the point it started from
    monkeypatch.setattr(minimizer, "_MAX_ITER", 0)
    m = np.array([1.0, 2.0, 5.0, 3.0, 1.0, 4.0])
    with pytest.raises(ConvergenceFailure) as exc:
        minimize_f_k(AuxiliaryFunctional(1.0), MassVector(m), grad_tol=0.0)
    start = minimizer._mass_start(m, 1.0).angles
    assert exc.value.result.theta_m.angles.tobytes() == start.tobytes()


def test_mass_start_takes_fewer_steps_than_the_regular_ngon():
    # the certify benchmark's families at its sizes; each family on its own
    for family in ("one-heavy", "two-heavy", "graded", "uniform"):
        steps = {"mass": 0, "ngon": 0}
        for n in (9, 13, 26, 40):
            m = MassVector(certify_masses(family, n))
            for alpha in (0.5, 1.0, 3.0):
                aux = AuxiliaryFunctional(alpha)
                steps["mass"] += minimize_f_k(aux, m).iterations
                steps["ngon"] += minimize_f_k(aux, m, regular_ngon(n)).iterations
        assert steps["mass"] < steps["ngon"], family


def test_one_heavy_triangle_frozen():
    aux = AuxiliaryFunctional(1.0, 16.0)
    res = minimize_f_k(aux, MassVector(np.array([1.0, 1.0, 2.0])))
    np.testing.assert_allclose(
        res.theta_m.angles,
        [2.1722178297908954, 4.11096747738869, TAU],
        rtol=0, atol=1e-9,
    )
    assert abs(res.f_value - 3.8196204817779997) < 1e-12
    # the two unit masses sit symmetric about the axis through the heavy one
    assert abs(res.theta_m.angles[0] + res.theta_m.angles[1] - TAU) < 1e-9
    assert res.grad_norm <= 1e-11 * abs(res.f_value)


def test_reduced_coordinates_frozen_and_roundtrip():
    x = reduced_coordinates(regular_ngon(4))
    np.testing.assert_allclose(x, [np.pi / 2, np.pi, 1.5 * np.pi], atol=1e-15)
    back = angles_from_reduced(x)
    np.testing.assert_array_equal(back.angles, regular_ngon(4).angles)


def test_reduced_coordinates_requires_pinned():
    with pytest.raises(DomainError):
        reduced_coordinates(AngleConfiguration(np.array([1.0, 2.0, 3.0])))


def test_angles_from_reduced_rejects_boundary():
    with pytest.raises(DomainError):
        angles_from_reduced(np.array([1.0, TAU]))  # collides with the pin


def test_init_validation():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.ones(4))
    # the types verify_cc and grad_theta_f_k raise for the same angles
    with pytest.raises(DimensionError, match="^4 masses but 3 angles$"):
        minimize_f_k(aux, m, regular_ngon(3))
    with pytest.raises(DomainError):
        minimize_f_k(aux, m, AngleConfiguration(np.array([1.0, 2.0, 3.0, 4.0])))
    with pytest.raises(CollisionError, match="^two bodies are within 1e-12 radians"):
        minimize_f_k(aux, m, AngleConfiguration(np.array([1.0, 1.0 + 1e-13, 3.0, TAU])))


def test_convergence_failure_carries_last_iterate():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.array([1.0, 1.0, 2.0]))
    with pytest.raises(ConvergenceFailure) as exc:
        minimize_f_k(aux, m, grad_tol=0.0)  # met only by a zero gradient
    result = exc.value.result
    assert result.converged is False
    assert result.iterations == 200
    assert result.theta_m.n == 3


def test_a_trial_too_near_a_collision_shrinks(monkeypatch):
    # from the square, at a collision tolerance of 1.4 one line-search trial
    # of this solve leaves a gap of about 1.35: it builds no chords and
    # shrinks, as it does when it fails Armijo at the default tolerance, so
    # the solve keeps its path, and every accepted point keeps its gaps
    # above the tolerance
    aux, m = AuxiliaryFunctional(0.5), MassVector(np.array([60.0, 0.02, 80.0, 0.03]))
    square = regular_ngon(4)
    builds = []
    chords_at = minimizer._chords_at
    monkeypatch.setattr(minimizer, "_chords_at",
                        lambda ws, t: builds.append(t) or chords_at(ws, t))
    free = minimize_f_k(aux, m, square)
    free_builds = len(builds)
    monkeypatch.setattr(minimizer, "COLLISION_TOL", 1.4)
    res = minimize_f_k(aux, m, square)
    # every point that built chords, each accepted point among them
    for t in builds[free_builds:]:
        assert np.diff(t, prepend=t[-1] - TAU).min() >= 1.4
    assert len(builds) - free_builds == free_builds - 1
    assert res.converged
    assert res.theta_m.angles.tobytes() == free.theta_m.angles.tobytes()


def _singular(a, b):
    raise np.linalg.LinAlgError("Singular matrix")


def _posv(solve):
    """A dposv that writes solve(a, b) over its right-hand side, or reports
    a failed factorization where solve raises LinAlgError."""
    def posv(uplo, size, nrhs, a, lda, b, ldb, info, length):
        rhs = lapack_array(b, size.value)
        try:
            rhs[:] = solve(None, rhs.copy())
        except np.linalg.LinAlgError:
            info.value = 1
    return posv


def _paths(**routines):
    """The ``_LAPACK`` handle of each path: LAPACK's, with ``routines`` in
    place of its own, where numpy bundles OpenBLAS; then None, np.linalg's."""
    return ([minimizer._LAPACK._replace(**routines)] if minimizer._LAPACK else []) + [None]


@pytest.mark.parametrize("solve", [
    _singular,
    lambda a, b: -b,  # the step +g climbs
    lambda a, b: np.full_like(b, np.nan),
], ids=["singular", "ascent", "nan"])
def test_failed_newton_step_is_a_convergence_failure(monkeypatch, solve):
    # the reduced Hessian is positive definite in exact arithmetic, so a
    # failed factorization or a step that does not descend has no
    # gradient-step fallback: the solve stops with the iterate it had, here
    # its start, on either path
    monkeypatch.setattr(np.linalg, "solve", solve)
    masses = MassVector(np.array([1.0, 2.0, 5.0, 3.0, 1.0, 4.0]))
    for lapack in _paths(posv=_posv(solve)):
        monkeypatch.setattr(minimizer, "_LAPACK", lapack)
        with pytest.raises(ConvergenceFailure,
                           match="reduced Hessian is not positive definite at iteration 0"
                           ) as exc:
            minimize_f_k(AuxiliaryFunctional(1.0), masses, regular_ngon(6))
        result = exc.value.result
        assert (result.converged, result.iterations) == (False, 0)
        assert result.theta_m.angles.tobytes() == regular_ngon(6).angles.tobytes()


def test_failed_final_check_is_a_convergence_failure(monkeypatch):
    # a Cholesky that fails at the candidate, on either path; at the square
    # the equal masses' gradient is zero, so the check comes first
    def fail(*args):
        raise np.linalg.LinAlgError("Matrix is not positive definite")

    monkeypatch.setattr(np.linalg, "cholesky", fail)
    for lapack in _paths(potrf=lambda uplo, size, a, lda, info, length: setattr(info, "value", 1)):
        monkeypatch.setattr(minimizer, "_LAPACK", lapack)
        with pytest.raises(ConvergenceFailure,
                           match="reduced Hessian is not positive definite at the candidate"):
            minimize_f_k(AuxiliaryFunctional(1.0), MassVector(np.ones(4)))


# the certify families at every n of the certify benchmark and the masses of
# the n = 256 entries of tests/frozen_outputs.py, each at alpha 0.5, 1 and 3
PROBLEMS = [(alpha, certify_masses(family, n)) for family in ("uniform", "graded", "one-heavy",
                                                              "two-heavy")
            for n in range(8, 41) for alpha in (0.5, 1.0, 3.0)] + [
    (alpha, m) for m in (np.random.default_rng(256).uniform(0.5, 2.0, 256),
                         np.array([1.0] * 255 + [300.0])) for alpha in (0.5, 1.0, 3.0)]


def test_numpy_path_converges_where_lapack_does(monkeypatch):
    # with the LAPACK handle absent, as where numpy links another LAPACK,
    # np.linalg solves and factors; each solve converges to a gradient
    # within grad_tol |f|, within the stop's reach of the default path's
    default = [minimize_f_k(AuxiliaryFunctional(alpha), MassVector(m)) for alpha, m in PROBLEMS]
    monkeypatch.setattr(minimizer, "_LAPACK", None)
    for (alpha, m), then in zip(PROBLEMS, default):
        aux, masses = AuxiliaryFunctional(alpha), MassVector(m)
        res = minimize_f_k(aux, masses)
        assert res.converged and then.converged
        gradient = grad_theta_f_k(aux, masses, res.theta_m)[:-1]
        assert res.grad_norm == minimizer._norm(gradient) <= 1e-11 * abs(res.f_value)
        assert np.abs(res.theta_m.angles - then.theta_m.angles).max() <= 1e-8


def test_numpy_path_certifies_what_lapack_does(monkeypatch):
    def certificates(alpha, m):
        verdicts = exclusion_verdicts(AuxiliaryFunctional(alpha), MassVector(m))
        return [(v.excluded, v.inconsistent, [g for g, _ in v.certificates]) for v in verdicts]

    default = [certificates(alpha, m) for alpha, m in PROBLEMS]
    monkeypatch.setattr(minimizer, "_LAPACK", None)
    assert [certificates(alpha, m) for alpha, m in PROBLEMS] == default


@pytest.mark.skipif(minimizer._LAPACK is None, reason="numpy bundles no OpenBLAS")
@pytest.mark.parametrize("failure", [None, "step", "check", "raise"])
def test_a_solve_restores_the_openblas_thread_count(monkeypatch, failure):
    # each LAPACK call runs on one OpenBLAS thread, and the count the
    # process had is back after the solve, whether it converged, failed a
    # factorization or raised from inside the call
    routines, counts = minimizer._LAPACK, []

    def counted(call, fails):
        def run(*args):
            counts.append(routines.get_threads())
            if failure == "raise":
                raise RuntimeError("interrupted")
            call(*args)
            if fails:
                args[-2].value = 1  # info: the factorization failed
        return run

    monkeypatch.setattr(minimizer, "_LAPACK", routines._replace(
        posv=counted(routines.posv, failure == "step"),
        potrf=counted(routines.potrf, failure == "check")))
    threads = routines.get_threads()
    # a count other than 1, whatever the process started with
    routines.set_threads(threads + 1)
    try:
        masses = MassVector(np.random.default_rng(256).uniform(0.5, 2.0, 256))
        if failure is None:
            assert minimize_f_k(AuxiliaryFunctional(1.0), masses).converged
        else:
            with pytest.raises(RuntimeError if failure == "raise" else ConvergenceFailure):
                minimize_f_k(AuxiliaryFunctional(1.0), masses)
        assert routines.get_threads() == threads + 1
    finally:
        routines.set_threads(threads)
    assert counts and set(counts) == {1}


@pytest.mark.parametrize("grad_tol", [-1.0, float("nan")])
def test_bad_grad_tol_is_a_domain_error(grad_tol):
    with pytest.raises(DomainError):
        minimize_f_k(AuxiliaryFunctional(1.0), MassVector(np.ones(3)), grad_tol=grad_tol)


@pytest.mark.parametrize("alpha, masses, error", [
    (1000.0, np.ones(50), UnsupportedExponent),  # r**-1002 overflows
    (1.0, np.array([1e200, 2e200, 3e200]), DomainError),  # m_j m_k overflows
    (1.0, np.array([1e200, 3e200]), DomainError),  # the closed-form n = 2 branch
    # past the top of the bit-identical 2**k range, f overflows
    (1.0, np.array([1.0, 2.0, 5.0, 3.0, 1.0, 4.0]) * 2.0 ** 510, DomainError),
    (1.0, np.full(6, 1e160), DomainError),
    (1.0, np.array([1.0] * 5 + [1e308]), DomainError),  # a sum over the pairs overflows
    # one doubling past the 2**508 solve below, a pair sum overflows
    (3.0, np.array([1.0, 2.0, 5.0, 3.0, 1.0, 4.0]) * 2.0 ** 509, DomainError),
])
def test_non_finite_objective_is_an_input_error(alpha, masses, error):
    # the typed error comes with no numpy warning ahead of it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            minimize_f_k(AuxiliaryFunctional(alpha), MassVector(masses))
        with pytest.raises(error):
            exclusion_verdicts(AuxiliaryFunctional(alpha), MassVector(masses))


def test_regularization_past_a_double_still_converges():
    # at alpha = 3 every Hessian entry is finite, but the trace that scales
    # _DIAG_REG passes a double (about 3.8e308); the shift is then summed
    # scaled by 2**-64, exactly, so the solve keeps the bits of scale 1 and
    # exclude certifies the same elements with margins 2**1016 times larger
    aux = AuxiliaryFunctional(3.0)
    base = np.array([1.0, 2.0, 5.0, 3.0, 1.0, 4.0])
    big = MassVector(base * 2.0 ** 508)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_f_k(aux, big)
        group, swap = exclusion_verdicts(aux, big)
    small = minimize_f_k(aux, MassVector(base))
    assert res.converged and res.iterations == small.iterations == 4
    assert res.f_value == small.f_value * 2.0 ** 1016 == 3.846075469718971e+307
    assert res.theta_m.angles.tobytes() == small.theta_m.angles.tobytes()
    small_group, small_swap = exclusion_verdicts(aux, MassVector(base))
    for verdict, reference in ((group, small_group), (swap, small_swap)):
        assert verdict.excluded and not verdict.inconsistent
        assert [g for g, _ in verdict.certificates] == [g for g, _ in reference.certificates]
        assert [mg for _, mg in verdict.certificates] == [
            mg * 2.0 ** 1016 for _, mg in reference.certificates]
    assert len(group.certificates) == 11 and group.witness == GroupElement(1, 0, 6)


def test_gradient_squares_past_a_double_still_converge():
    # at the hexagon every gradient entry is finite, only gr @ gr overflows;
    # the group scan's q then overflows, so exclude refuses what minimize
    # solves
    aux = AuxiliaryFunctional(1.0)
    masses = MassVector(np.array([1.0, 2.0, 5.0, 3.0, 1.0, 1e300]))
    hexagon = regular_ngon(6)
    with np.errstate(over="ignore"):
        gr = grad_theta_f_k(aux, masses, hexagon)[:-1]
        assert np.isfinite(gr).all() and gr @ gr == np.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = minimize_f_k(aux, masses, hexagon)
        with pytest.raises(DomainError):
            exclusion_verdicts(aux, masses)
    assert res.converged and res.iterations > 0


def test_solution_is_a_positive_definite_critical_point():
    rng = np.random.default_rng(2)
    aux = AuxiliaryFunctional(1.0)
    m = random_masses(rng, 6)
    res = minimize_f_k(aux, m)
    g = grad_theta_f_k(aux, m, res.theta_m)[:-1]
    assert np.linalg.norm(g) <= 1e-11 * abs(res.f_value)
    h = hessian_theta_f_k(aux, m, res.theta_m)[:-1, :-1]
    assert np.min(np.linalg.eigvalsh(h)) > 0.0


def test_twenty_random_restarts_agree():
    rng = np.random.default_rng(9)
    aux = AuxiliaryFunctional(1.0)
    m = random_masses(rng, 6)
    reference = minimize_f_k(aux, m).theta_m.angles
    for _ in range(20):
        init = ordered_angles(rng, 6)
        res = minimize_f_k(aux, m, init)
        np.testing.assert_allclose(res.theta_m.angles, reference,
                                   rtol=0, atol=1e-8)


@given(st.integers(0, 2**32 - 1), st.integers(3, 8))
@settings(max_examples=25, deadline=None)
def test_minimizer_independent_of_init(seed, n):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(1.0)
    m = random_masses(rng, n)
    a = minimize_f_k(aux, m)
    b = minimize_f_k(aux, m, ordered_angles(rng, n))
    assert a.converged and b.converged
    np.testing.assert_allclose(a.theta_m.angles, b.theta_m.angles,
                               rtol=0, atol=1e-8)


@given(st.integers(0, 2**32 - 1), st.sampled_from([0.5, 1.0, 2.0]),
       st.integers(3, 8))
@settings(max_examples=25, deadline=None)
def test_minimum_beats_random_competitors(seed, alpha, n):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(alpha)
    m = random_masses(rng, n)
    res = minimize_f_k(aux, m)
    for _ in range(5):
        other = ordered_angles(rng, n)
        assert res.f_value <= f_k_value(aux, m, other) + 1e-10


def test_unpinned_init_near_pin_is_normalized():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.ones(3))
    init = AngleConfiguration(np.array([TAU / 3, 2 * TAU / 3, TAU - 5e-13]))
    res = minimize_f_k(aux, m, init)
    assert res.theta_m.angles[-1] == TAU
