import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_potential as ref
from cocircular import (
    TAU,
    AuxiliaryFunctional,
    DimensionError,
    DomainError,
    InvalidArity,
    MassVector,
    UnsupportedExponent,
    circulant_spectrum,
    g_value,
    pair_weight_matrix,
    regular_ngon,
)
from cocircular.scanner import _U as U, _g_error
from conftest import ordered_angles, random_masses
from oracle import taylor_identity_check
from reference_potential import f_k_value, u_beta


def test_build_matrices_shift_structure():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.array([1.0, 2.0, 1.5, 0.5]))
    cfg = regular_ngon(4)
    cm = ref.build_matrices(aux, m, cfg)
    w = pair_weight_matrix(aux, cfg)
    c = 2.0 * u_beta(1.0, m, cfg) / m.total_mass**2 + 2.0 / aux.k
    assert np.array_equal(cm.hcal, c * np.ones((4, 4)) - w)
    assert cm.threshold == 1.25


def test_criterion_matrix_annihilates_masses_at_ngon():
    for n in (3, 5, 8):
        aux = AuxiliaryFunctional(1.0)
        m = MassVector(np.ones(n))
        cm = ref.build_matrices(aux, m, regular_ngon(n))
        assert np.max(np.abs(cm.hcal @ m.masses)) < 1e-12


def test_u_ratio_matches_ngon_normalized_potential():
    for n, alpha in ((3, 0.5), (6, 1.0), (9, 2.0), (12, 1.5)):
        aux = AuxiliaryFunctional(alpha)
        cm = ref.build_matrices(aux, MassVector(np.ones(n)), regular_ngon(n))
        assert abs(cm.u_ratio - g_value(n, alpha)) < 1e-13


def test_circulant_spectrum_square_frozen():
    spec = circulant_spectrum(AuxiliaryFunctional(1.0, 16.0), 4)
    expected = [2.4142135623730949, -0.75, -0.91421356237309503, -0.75]
    assert np.allclose(spec, expected, atol=1e-14)
    w = pair_weight_matrix(AuxiliaryFunctional(1.0, 16.0), regular_ngon(4))
    assert abs(spec[0] - w[0].sum()) < 1e-14


@given(st.integers(3, 16), st.sampled_from([0.5, 1.0, 2.0]))
@settings(max_examples=50, deadline=None)
def test_circulant_matches_dense_eigensolver(n, alpha):
    aux = AuxiliaryFunctional(alpha)
    spec = circulant_spectrum(aux, n)
    w = pair_weight_matrix(aux, regular_ngon(n))
    dense = np.linalg.eigvalsh(w)
    assert np.allclose(np.sort(spec), dense, atol=1e-10)
    # eigenvector k is the k-th root-of-unity vector (xi_k**1, ..., xi_k**n)/sqrt(n)
    vectors = np.exp(1j * TAU * np.outer(np.arange(1, n + 1), np.arange(n)) / n)
    vectors /= np.sqrt(n)
    for k in range(n):
        v = vectors[:, k]
        assert np.linalg.norm(w @ v - spec[k] * v) < 1e-10
        assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_criterion_spectrum_is_negated_tail():
    # on the mean-zero subspace the shifted matrix acts as -W, so its
    # spectrum is the negated circulant tail plus one near-zero value
    for n, alpha in ((5, 1.0), (8, 0.5)):
        aux = AuxiliaryFunctional(alpha)
        spec = circulant_spectrum(aux, n)
        cm = ref.build_matrices(aux, MassVector(np.ones(n)), regular_ngon(n))
        got = np.sort(np.linalg.eigvalsh(cm.hcal))
        expected = np.sort(np.concatenate([[0.0], -spec[1:]]))
        assert np.allclose(got, expected, atol=1e-10)


def test_taylor_identity_at_polygon_solutions():
    for n in (3, 5, 8):
        aux = AuxiliaryFunctional(1.0)
        m = MassVector(np.ones(n))
        cfg = regular_ngon(n)
        f = f_k_value(aux, m, cfg)
        rng = np.random.default_rng(7 * n)
        for _ in range(5):
            bump = rng.uniform(-0.4, 0.4, n)
            y = MassVector(m.masses + bump - bump.mean())
            assert taylor_identity_check(aux, m, cfg, y) <= 1e-10 * abs(f)


def test_taylor_identity_rejects_sum_mismatch():
    aux = AuxiliaryFunctional(1.0)
    m = MassVector(np.ones(4))
    with pytest.raises(DomainError):
        taylor_identity_check(aux, m, regular_ngon(4),
                              MassVector(np.array([1.0, 1.0, 1.0, 1.5])))


def test_taylor_identity_rejects_length_mismatch():
    aux = AuxiliaryFunctional(1.0)
    with pytest.raises(DimensionError):
        taylor_identity_check(aux, MassVector(np.ones(4)), regular_ngon(4),
                              MassVector(np.array([2.0, 2.0])))


# n = 3..1024 sampled, plus the powers of two and their neighbours; the
# alphas cover both branches of the package's power (multiply chains at
# integer exponents up to 4, numpy's power otherwise)
SPECTRUM_NS = sorted({*range(3, 40), *range(40, 1025, 109), 255, 256, 257,
                      511, 512, 513, 1024})


@pytest.mark.parametrize("alpha", [0.1, 0.5, 1.0, 2.0, 2.9, 3.0, 4.0])
def test_circulant_spectrum_within_its_bound_of_a_cosine_sum(alpha):
    # the reference sums the exact row rounded to doubles (u of S) and is
    # within 26u S of that row's exact sums, so the two differ by at most
    # the docstring's bound plus 27u S
    aux = AuxiliaryFunctional(alpha)
    for n in SPECTRUM_NS:
        row = [float(w) for w in ref.exact_row(aux, n)]
        total = math.fsum(row)
        err = np.abs(circulant_spectrum(aux, n) - ref.circulant_spectrum(row))
        assert err.max() <= ref.spectrum_bound(n, alpha, total) + 27 * U * total, n


def test_pairs_of_eigenvalues_are_equal_bit_for_bit():
    # W is a symmetric circulant, so lambda_k = lambda_(n - k)
    for alpha in (0.5, 1.0, 2.9, 3.0):
        aux = AuxiliaryFunctional(alpha)
        for n in range(3, 301):
            spec = circulant_spectrum(aux, n)
            assert np.array_equal(spec[1:], spec[:0:-1]), (n, alpha)


def test_eigenvalue_zero_is_the_sum_g_takes():
    # lambda_0 sums w(2 sin(j pi / n)) over j, and the squared sines sum to
    # n/2: lambda_0 = 2**-alpha n g(n, alpha) + 2n/k
    for alpha in (0.5, 1.0, 2.9, 3.0):
        aux = AuxiliaryFunctional(alpha)
        for n in range(3, 301):
            lam0 = circulant_spectrum(aux, n)[0]
            g = g_value(n, alpha)
            closed = 2.0 ** -alpha * n * g + 2.0 * n / aux.k
            # the spectrum's bound, g's scaled by 2**-alpha n, and the
            # closed form's own roundings: a pow within 1 ulp and four more
            tol = (ref.spectrum_bound(n, alpha, lam0)
                   + 2.0 ** -alpha * n * _g_error((n - 1) // 2, alpha, g) + 6 * U * closed)
            assert abs(lam0 - closed) <= tol, (n, alpha)


def test_circulant_spectrum_arity():
    with pytest.raises(InvalidArity):
        circulant_spectrum(AuxiliaryFunctional(1.0), 2)


def test_circulant_spectrum_rejects_overflowing_row():
    with pytest.raises(UnsupportedExponent):
        circulant_spectrum(AuxiliaryFunctional(1000.0), 1000)


@pytest.mark.parametrize("alpha", [139.875, 139.9])
def test_circulant_spectrum_rejects_overflowing_eigenvalues(alpha):
    # W's first row is finite below alpha = 140 at n = 1000, but its cosine
    # sums pass a double; the typed error comes with no numpy warning
    aux = AuxiliaryFunctional(alpha)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        row = pair_weight_matrix(aux, regular_ngon(1000))[0]
        assert np.isfinite(row).all()
        with pytest.raises(UnsupportedExponent, match="W overflows at n = 1000"):
            circulant_spectrum(aux, 1000)


def test_spectrum_memory_is_one_block():
    # a table of cosines peaks above 2 n**2 doubles, 256 MB at n = 4000;
    # the transform holds a few rows of n
    tracemalloc.start()
    try:
        circulant_spectrum(AuxiliaryFunctional(1.0), 4000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@given(st.integers(0, 2**32 - 1), st.integers(3, 7))
@settings(max_examples=30, deadline=None)
def test_mass_quadratic_reproduces_functional(seed, n):
    # y^T W y / 2 equals the functional with y as masses, at any angles
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(1.0)
    cfg = ordered_angles(rng, n)
    y = random_masses(rng, n)
    quad = 0.5 * y.masses @ pair_weight_matrix(aux, cfg) @ y.masses
    direct = f_k_value(aux, y, cfg)
    assert abs(quad - direct) <= 1e-12 * max(1.0, abs(direct))
