import math
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocircular.geometry as geometry
import cocircular.potential as potential
from cocircular import (
    TAU,
    AngleConfiguration,
    AuxiliaryFunctional,
    CollisionError,
    DimensionError,
    DomainError,
    InvalidArity,
    MassVector,
    UnsupportedExponent,
    alpha_star,
    center_of_mass,
    circulant_spectrum,
    g_value,
    minimize_f_k,
    regular_ngon,
    scan_region,
    verify_cc,
)
from conftest import dirty_matrix, on_fresh_thread, ordered_angles
from oracle import chord_matrix, mirror


def test_regular_ngon_square():
    sq = regular_ngon(4)
    np.testing.assert_allclose(
        sq.angles, [np.pi / 2, np.pi, 1.5 * np.pi, TAU], rtol=0, atol=1e-15
    )
    assert sq.angles[-1] == TAU


def test_regular_ngon_rejects_small_n():
    with pytest.raises(InvalidArity):
        regular_ngon(2)


def test_non_integer_n_is_invalid_arity():
    with pytest.raises(InvalidArity):
        regular_ngon(4.5)
    with pytest.raises(InvalidArity):
        circulant_spectrum(AuxiliaryFunctional(1.0), 4.5)
    assert np.array_equal(regular_ngon(np.int64(5)).angles, regular_ngon(5).angles)


def test_square_chords():
    r = chord_matrix(regular_ngon(4))
    s = np.sqrt(2.0)
    expected = np.array(
        [[0, s, 2, s], [s, 0, s, 2], [2, s, 0, s], [s, 2, s, 0]], dtype=float
    )
    np.testing.assert_allclose(r, expected, rtol=0, atol=1e-15)


def test_ngon_chords_depend_only_on_index_distance():
    r = chord_matrix(regular_ngon(7))
    for d in range(1, 7):
        vals = [r[j, (j + d) % 7] for j in range(7)]
        assert np.ptp(vals) <= 1e-15


def test_center_of_mass_frozen():
    m = MassVector(np.array([2.0, 1.0, 1.0]))
    cfg = AngleConfiguration(np.array([TAU / 3, 2 * TAU / 3, TAU]))
    z = center_of_mass(m, cfg)
    assert abs(z - complex(-1 / 8, np.sqrt(3) / 8)) < 1e-15


def test_center_of_mass_ngon_vanishes():
    for n in (3, 5, 8):
        z = center_of_mass(MassVector(np.ones(n)), regular_ngon(n))
        assert abs(z) < 1e-15 * n


def test_center_of_mass_dimension_mismatch():
    with pytest.raises(DimensionError):
        center_of_mass(MassVector(np.ones(4)), regular_ngon(3))


def test_mass_vector_validation():
    with pytest.raises(InvalidArity):
        MassVector(np.array([1.0]))
    with pytest.raises(DomainError):
        MassVector(np.array([1.0, 0.0]))
    with pytest.raises(DomainError):
        MassVector(np.array([1.0, -2.0]))
    with pytest.raises(DomainError):
        MassVector(np.array([1.0, np.nan]))


@pytest.mark.parametrize("build, value, what", [
    (MassVector, np.ones((3, 3)), "a mass vector"),
    (MassVector, [1.0], "a mass vector"),
    (AngleConfiguration, [[1.0, 2.0, 3.0]], "an angle configuration"),
    (AngleConfiguration, np.ones((1, 1)), "an angle configuration"),
], ids=["masses-3x3", "masses-one", "angles-1x3", "angles-1x1"])
def test_arity_error_names_both_conditions(build, value, what):
    # 2-D input of enough entries is refused for its shape, not its count
    message = f"^{what} must be one-dimensional with at least two entries$"
    with pytest.raises(InvalidArity, match=message):
        build(value)


@pytest.mark.parametrize("masses", [[1e308] * 3, [1.7e308, 1.7e308]])
def test_mass_vector_total_overflow_is_a_domain_error(masses):
    # every mass is finite, but their exact sum is not a double
    with pytest.raises(DomainError, match="total mass"):
        MassVector(np.array(masses))


def test_mass_vector_is_frozen():
    m = MassVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        m.masses[0] = 5.0
    assert m.total_mass == 3.0
    assert m.n == 2


def test_angle_configuration_validation():
    with pytest.raises(DomainError):
        AngleConfiguration(np.array([2.0, 1.0, TAU]))  # not increasing
    with pytest.raises(DomainError):
        AngleConfiguration(np.array([0.0, 1.0, TAU]))  # first angle not > 0
    with pytest.raises(DomainError):
        AngleConfiguration(np.array([1.0, 2.0, TAU + 0.1]))  # beyond 2*pi
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(DomainError, match="^angles must be finite$"):
            AngleConfiguration(np.array([1.0, bad, TAU]))
    with pytest.raises(InvalidArity):
        AngleConfiguration(np.array([1.0]))


def test_wild_angles_are_refused_without_a_warning():
    # both ends lie in (0, 2*pi], the middle does not, and its difference
    # 1e308 - (-1e308) would overflow a double
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DomainError, match="strictly increasing"):
            AngleConfiguration(np.array([1.0, -1e308, 1e308, 6.0]))


_HUGE = 10**400  # an int that no double holds


@pytest.mark.parametrize("call, error", [
    (lambda: AuxiliaryFunctional(_HUGE), UnsupportedExponent),
    (lambda: AuxiliaryFunctional(1.0, _HUGE), DomainError),
    (lambda: MassVector([_HUGE, 1]), DomainError),
    (lambda: AngleConfiguration([1, _HUGE]), DomainError),
    (lambda: g_value(3, _HUGE), UnsupportedExponent),
    (lambda: scan_region([3], [_HUGE]), UnsupportedExponent),
    (lambda: alpha_star(6, _HUGE), DomainError),
    (lambda: verify_cc(_HUGE, MassVector(np.ones(3)), regular_ngon(3)), UnsupportedExponent),
    (lambda: verify_cc(1.0, MassVector(np.ones(3)), regular_ngon(3), tol=_HUGE), DomainError),
    (lambda: minimize_f_k(AuxiliaryFunctional(1.0), MassVector(np.ones(3)), grad_tol=_HUGE),
     DomainError),
], ids=["alpha", "k", "masses", "angles", "g_value", "scan_region", "alpha_star-tol",
        "verify_cc-alpha", "verify_cc-tol", "minimize_f_k-grad_tol"])
def test_int_past_a_double_is_a_typed_error(call, error):
    # float(10**400) raises a bare OverflowError; each entry point turns it
    # into its typed input error
    with pytest.raises(error):
        call()


_UNPRINTABLE = -10**5000  # past the interpreter's limit on int digits for str()


@pytest.mark.parametrize("call", [
    lambda: verify_cc(1.0, MassVector(np.ones(3)), regular_ngon(3), tol=_UNPRINTABLE),
    lambda: minimize_f_k(AuxiliaryFunctional(1.0), MassVector(np.ones(3)),
                         grad_tol=_UNPRINTABLE),
    lambda: alpha_star(6, _UNPRINTABLE),
], ids=["verify_cc", "minimize_f_k", "alpha_star"])
def test_unprintable_negative_tolerance_is_a_domain_error(call):
    # the message shows the int's size where str() would refuse its digits
    with pytest.raises(DomainError, match=r"must be a nonnegative number, got an int of 16610 bits$"):
        call()


@pytest.mark.parametrize("call", [
    lambda: verify_cc(1.0, MassVector(np.ones(3)), regular_ngon(3), tol=math.inf),
    lambda: minimize_f_k(AuxiliaryFunctional(1.0), MassVector(np.ones(3)), grad_tol=math.inf),
    lambda: alpha_star(6, math.inf),
], ids=["verify_cc", "minimize_f_k", "alpha_star"])
def test_infinite_tolerance_is_a_domain_error(call):
    # an infinite tolerance accepts everything, and JSON has no inf to print
    with pytest.raises(DomainError, match=r"^(grad_)?tol must be finite, got inf$"):
        call()


@pytest.mark.parametrize("call, name, shown", [
    (lambda: verify_cc(1.0, MassVector(np.ones(3)), regular_ngon(3), tol="1"), "tol", "'1'"),
    (lambda: verify_cc(1.0, MassVector(np.ones(3)), regular_ngon(3), tol=None), "tol", "None"),
    (lambda: minimize_f_k(AuxiliaryFunctional(1.0), MassVector(np.ones(3)), grad_tol="1"),
     "grad_tol", "'1'"),
    (lambda: alpha_star(7, tol=None), "tol", "None"),
    (lambda: alpha_star(7, tol=1j), "tol", "1j"),
], ids=["verify_cc-str", "verify_cc-None", "minimize_f_k-str", "alpha_star-None",
        "alpha_star-complex"])
def test_tolerance_that_is_no_real_number_is_a_domain_error(call, name, shown):
    # a comparison with 0.0 would raise a bare TypeError for each of these
    with pytest.raises(DomainError, match=rf"^{name} must be a nonnegative number, got {shown}$"):
        call()


@pytest.mark.parametrize("call, holds", [
    (lambda n: g_value(n, 1.0), "the sine table of g"),
    (lambda n: alpha_star(n), "the sine table of g"),
    (lambda n: scan_region([n], [1.0]), "the sine table of g"),
    (regular_ngon, "the regular n-gon"),
    (lambda n: circulant_spectrum(AuxiliaryFunctional(1.0), n), "the regular n-gon"),
], ids=["g_value", "alpha_star", "scan_region", "regular_ngon", "circulant_spectrum"])
def test_n_past_every_memory_is_a_domain_error(call, holds):
    # an array of 10**18 doubles exceeds any address space, so numpy
    # refuses it without allocating
    with pytest.raises(DomainError, match=rf"^no memory holds {holds} at n = {10**18}$"):
        call(10**18)


@pytest.mark.parametrize("call", [
    lambda n: g_value(n, 1.0),
    lambda n: alpha_star(n),
    regular_ngon,
], ids=["g_value", "alpha_star", "regular_ngon"])
def test_n_past_every_array_is_invalid_arity(call):
    # sys.maxsize bounds every array length
    with pytest.raises(InvalidArity, match=rf"^need n <= {sys.maxsize} bodies, got {sys.maxsize + 1}$"):
        call(sys.maxsize + 1)
    with pytest.raises(InvalidArity, match=r"^need n >= 3 bodies, got an int of 16610 bits$"):
        call(_UNPRINTABLE)


def test_min_gap_includes_wraparound():
    cfg = AngleConfiguration(np.array([0.01, 3.0, TAU]))
    # wrap gap between t_n = 2*pi and t_1 = 0.01 is the smallest
    assert abs(cfg.min_gap() - 0.01) < 1e-15


def test_normalized_pins_last_angle():
    cfg = AngleConfiguration(np.array([1.0, 2.0, 5.0]))
    pinned = cfg.normalized()
    assert pinned.angles[-1] == TAU
    np.testing.assert_allclose(np.diff(pinned.angles), np.diff(cfg.angles))


def test_chord_matrix_detects_collision():
    with pytest.raises(CollisionError):
        chord_matrix(AngleConfiguration(np.array([1.0, 1.0 + 1e-14, TAU])))
    # collision across the wrap: t_1 right next to t_n = 2*pi
    with pytest.raises(CollisionError):
        chord_matrix(AngleConfiguration(np.array([1e-14, 3.0, TAU])))


def _smallest_gap(t):
    """The minimizer's trial gap: consecutive gaps and the wrap gap."""
    return min(np.diff(t).min(), t[0] + TAU - t[-1])


def _at_collision_tol(n, where):
    """Regular n-gon with one gap at the smallest double >= COLLISION_TOL.

    Angle j moves up toward angle j + 1 (first: j = 0; middle: j = n // 2),
    or, at the wrap, t_1 down toward 0 and so toward t_n = 2*pi.
    """
    t = regular_ngon(n).angles.copy()
    tol = geometry.COLLISION_TOL
    if where == "wrap":
        # t_1 + 2*pi - 2*pi is a multiple of the spacing of doubles at 2*pi
        ulp = math.ulp(TAU)
        t[0] = math.ceil(tol / ulp) * ulp
        return t
    j = 0 if where == "first" else n // 2
    t[j] = t[j + 1] - tol
    while t[j + 1] - t[j] < tol:
        t[j] = math.nextafter(t[j], -math.inf)
    while t[j + 1] - math.nextafter(t[j], math.inf) >= tol:
        t[j] = math.nextafter(t[j], math.inf)
    return t


@pytest.mark.parametrize("where", ["first", "middle", "wrap"])
@pytest.mark.parametrize("n", [3, 64, 1024])
def test_chords_at_the_collision_tolerance_lie_in_range(n, where):
    # _chords_at checks nothing; every configuration or line-search trial
    # that reaches it has every circular gap >= COLLISION_TOL, and at the
    # smallest such gap every chord is still positive and at most 2
    t = _at_collision_tol(n, where)
    assert geometry.COLLISION_TOL <= _smallest_gap(t) < 1.001 * geometry.COLLISION_TOL
    AngleConfiguration(t)  # increasing, in (0, 2*pi]
    ws = on_fresh_thread(potential._workspace, n)
    potential._chords_at(ws, t)
    ru = ws.ru
    assert ru.min() > 0.0 and ru.max() <= 2.0
    assert ru.min() < 2e-12


def test_ordered_angles_refuses_gaps_past_the_circle():
    # at the default gap, 256 gaps of 0.05 pass 2*pi; no draw may come out
    # unordered instead
    with pytest.raises(ValueError):
        ordered_angles(np.random.default_rng(0), 256)
    with pytest.raises(ValueError):
        ordered_angles(np.random.default_rng(0), 4, TAU / 4)
    assert len(ordered_angles(np.random.default_rng(0), 125).angles) == 125


@given(st.integers(0, 2**32 - 1), st.integers(3, 10))
@settings(max_examples=40, deadline=None)
def test_chords_match_halfangle_formula(seed, n):
    rng = np.random.default_rng(seed)
    cfg = ordered_angles(rng, n)
    r = chord_matrix(cfg)
    t = cfg.angles
    for j in range(n):
        for k in range(n):
            expected = abs(2.0 * np.sin(0.5 * (t[j] - t[k])))
            assert abs(r[j, k] - min(expected, 2.0)) <= 1e-12


@given(st.integers(0, 2**32 - 1), st.integers(3, 12))
@settings(max_examples=40, deadline=None)
def test_chords_bounded_by_diameter(seed, n):
    rng = np.random.default_rng(seed)
    r = chord_matrix(ordered_angles(rng, n))
    off = r[~np.eye(n, dtype=bool)]
    assert off.min() > 0.0
    assert off.max() <= 2.0
    np.testing.assert_array_equal(r, r.T)
    assert np.all(np.diag(r) == 0.0)


def _bits(a):
    return np.asarray(a, dtype=float).view(np.uint64)


def test_chord_clamp_matches_clip_bit_for_bit():
    # the chord clamp is np.minimum(ru, 2.0), not np.clip(ru, 0.0, 2.0):
    # ru is an abs, so it is >= +0.0 or NaN and the lower bound never acts
    two_up = np.nextafter(2.0, 3.0)
    ru = np.abs(np.array([0.0, -0.0, np.nan, np.inf, two_up, 1.0]))
    np.testing.assert_array_equal(_bits(np.minimum(ru, 2.0)),
                                  _bits(np.clip(ru, 0.0, 2.0)))
    # and the whole chord kernel against the former clip-based formula
    du = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, np.pi, -TAU, TAU,
                   1.0, -1e-300, 5e-324])
    with np.errstate(invalid="ignore"):  # sin(+-inf) is NaN
        old = np.abs(2.0 * np.sin(0.5 * du))
        np.clip(old, 0.0, 2.0, out=old)
        new = geometry._chords(du)
    np.testing.assert_array_equal(_bits(new), _bits(old))


def _mirror_inputs(n, symmetric):
    """Packed upper and lower halves at n with +-0.0, +-inf and NaN among them."""
    upper = np.random.default_rng(n).standard_normal(n * (n - 1) // 2)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])
    upper[:special.size] = special[:upper.size]
    return upper, upper.copy() if symmetric else np.negative(upper)


@pytest.mark.parametrize("symmetric", [True, False], ids=["symmetric", "antisymmetric"])
@pytest.mark.parametrize("n", [2, 3, 8, 40, 256])
def test_mirror_gathers_the_bits_of_the_masked_writes(n, symmetric):
    upper, lower = _mirror_inputs(n, symmetric)
    pairs = np.concatenate((upper, lower))
    expected = mirror(n, upper, lower).tobytes()
    ws = on_fresh_thread(potential._workspace, n)
    dirty = dirty_matrix(n)
    assert potential._mirror(ws, pairs, dirty) is dirty
    assert dirty.tobytes() == expected
    assert potential._mirror(ws, pairs, np.empty((n, n))).tobytes() == expected
    assert mirror(n, upper, lower, dirty_matrix(n)).tobytes() == expected
    # +0.0 on the diagonal, not the stale -0.0
    assert not np.signbit(dirty.diagonal()).any()


def test_mirror_map_needs_no_copy_to_gather():
    n = 256
    ws = on_fresh_thread(potential._workspace, n)
    assert ws.gather.shape == (n * n,) and ws.j.shape == ws.k.shape == (n * (n - 1) // 2,)
    for index in (ws.j, ws.k, ws.gather):
        assert index.dtype == np.intp
        assert index.flags.c_contiguous and index.flags.writeable
    pairs, out = np.ones(n * (n - 1)), np.empty((n, n))
    t, m = regular_ngon(n).angles, np.ones(n)
    tracemalloc.start()
    try:
        potential._mirror(ws, pairs, out)
        potential._chords_at(ws, t)
        potential._mass_pairs(ws, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a copied map alone is n^2 intp, 512 KiB, and a copied pair index
    # n(n - 1)/2 intp, 255 KiB
    assert peak < 4096


def test_pair_indices_match_triu_indices():
    for n in [*range(2, 65), 1024]:
        ws = on_fresh_thread(potential._workspace, n)
        for got, want in zip((ws.j, ws.k), np.triu_indices(n, 1)):
            assert got.dtype == np.intp and np.array_equal(got, want), n
