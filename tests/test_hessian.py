"""The Newton step's Hessian: its chord form's accuracy and its symmetry.

``potential._hessian_theta`` forms cos(du/2)**2 from the chord as
1 - ru**2/4. Its docstring bounds each entry against the cosine form,
``oracle.hessian_theta``; the bound is checked where the two forms part
most, at near-antipodal pairs, and where the powers are largest, at
near-collisions. ``minimize_f_k`` hands LAPACK the reduced Hessian as
the leading block of the C-ordered n x n h, which LAPACK reads in
column order, that is transposed; or, where numpy bundles no OpenBLAS,
np.linalg takes the transposed view. Either is the same matrix only
while h is symmetric bit for bit after the diagonal shift. That premise
is checked at every iterate of the certify families and of the n = 256
inputs, on both paths, with the call's bits against the same call on a
plain copy.
"""

import ctypes

import numpy as np
import pytest

import cocircular.minimizer as minimizer
import cocircular.potential as potential
from cocircular import AngleConfiguration, AuxiliaryFunctional, MassVector, TAU, minimize_f_k
from cocircular.geometry import COLLISION_TOL
from conftest import certify_masses, lapack_array, ordered_angles, random_masses
from oracle import hessian_bound, hessian_theta


def _hard_angles(rng, n, collision):
    """Pinned angles whose bodies pair up within 1e-6..1e-14 of antipodes.

    The first n // 2 angles lie in [0.1, pi - 0.1], at least 1e-4 apart
    but the first two, which are ``collision`` apart, and each has a
    partner pi + delta further on, the first two the same delta; an odd n
    puts its last body midway between the two halves.
    """
    p = n // 2
    gaps = 1e-4 + (np.pi - 0.2 - p * 1e-4) * rng.dirichlet(np.ones(p))
    a = 0.1 + np.cumsum(gaps) - gaps[0]
    delta = rng.choice([-1.0, 1.0], p) * 10.0 ** -rng.integers(6, 15, p).astype(float)
    if p >= 2:
        a[1], delta[1] = a[0] + collision, delta[0]
    t = np.concatenate((a, a + np.pi + delta))
    if n % 2:
        t = np.insert(t, p, 0.5 * (t[p - 1] + t[p]))
    t += TAU - t[-1]
    t[-1] = TAU
    return AngleConfiguration(t)


def _hessian(aux, masses, config):
    """The package's Hessian at config."""
    ws = potential._frame(config, aux.alpha)
    potential._mass_pairs(ws, masses.masses)
    return potential._hessian_theta(aux, ws).copy()


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0, 30.0])
@pytest.mark.parametrize("n", [3, 8, 64, 256])
def test_chord_hessian_stays_within_its_bound(n, alpha):
    rng = np.random.default_rng(n + int(4 * alpha))
    aux = AuxiliaryFunctional(alpha)
    # the nearest collision whose r**-(alpha + 2) stays below 1e200
    collision = max(COLLISION_TOL * 10.0, 10.0 ** (-200.0 / (alpha + 2.0)))
    configs = [_hard_angles(rng, n, collision) for _ in range(2)]
    configs.append(ordered_angles(rng, n, min_gap=1.0 / n))
    masses = [random_masses(rng, n), MassVector(np.exp(rng.normal(0.0, 2.0, n)))]
    for config in configs:
        for m in masses:
            h = _hessian(aux, m, config)
            assert np.isfinite(h).all()
            error = np.abs(h - hessian_theta(aux, m, config))
            assert (error <= hessian_bound(aux, m, config)).all()


def test_near_antipodal_pairs_part_the_two_forms():
    # so the bound above is checked where it has work to do
    rng = np.random.default_rng(7)
    aux, m = AuxiliaryFunctional(1.0), random_masses(rng, 64)
    config = _hard_angles(rng, 64, 1e-6)
    assert (_hessian(aux, m, config) != hessian_theta(aux, m, config)).any()


def _watched(monkeypatch, lapack):
    """Record, at every LAPACK call, whether the matrix LAPACK reads equals
    its transpose bit for bit and whether the call gives the bits of the
    same call on a C-ordered copy.

    With ``lapack`` each in-place dposv or dpotrf is checked against the
    same routine on a copy of h's leading block at lda = N: its info, its
    solution and its factor, which both leave in the upper triangle of
    their C-ordered matrix. Without it, ``_LAPACK`` is patched to absent
    and each np.linalg call on the transposed view is checked against
    the same call on its contiguous copy.
    """
    seen = []
    if not lapack:
        monkeypatch.setattr(minimizer, "_LAPACK", None)
        solve, cholesky = np.linalg.solve, np.linalg.cholesky

        def checked(call):
            def run(a, *args):
                plain = np.ascontiguousarray(a.T)
                seen.append((np.ascontiguousarray(a).tobytes() == plain.tobytes(),
                             call(a, *args).tobytes() == call(plain, *args).tobytes()))
                return call(a, *args)
            return run

        monkeypatch.setattr(np.linalg, "solve", checked(solve))
        monkeypatch.setattr(np.linalg, "cholesky", checked(cholesky))
        return seen
    routines = minimizer._LAPACK

    def block(address, size, lda):
        n = lda.value
        return lapack_array(address, n * n).reshape(n, n)[:size.value, :size.value]

    def posv(uplo, size, nrhs, a, lda, b, ldb, info, length):
        hr, rhs = block(a, size, lda), lapack_array(b, size.value)
        symmetric = hr.tobytes() == hr.T.tobytes()
        plain, solution, plain_info = hr.copy(), rhs.copy(), ctypes.c_int64()
        routines.posv(uplo, size, nrhs, plain.ctypes.data, size, solution.ctypes.data, size,
                      plain_info, length)
        routines.posv(uplo, size, nrhs, a, lda, b, ldb, info, length)
        seen.append((symmetric, (info.value, np.triu(hr).tobytes(), rhs.tobytes())
                     == (plain_info.value, np.triu(plain).tobytes(), solution.tobytes())))

    def potrf(uplo, size, a, lda, info, length):
        hr = block(a, size, lda)
        symmetric = hr.tobytes() == hr.T.tobytes()
        plain, plain_info = hr.copy(), ctypes.c_int64()
        routines.potrf(uplo, size, plain.ctypes.data, size, plain_info, length)
        routines.potrf(uplo, size, a, lda, info, length)
        seen.append((symmetric, (info.value, np.triu(hr).tobytes())
                     == (plain_info.value, np.triu(plain).tobytes())))

    monkeypatch.setattr(minimizer, "_LAPACK", routines._replace(posv=posv, potrf=potrf))
    return seen


# the paths of ``_cholesky``: in-place LAPACK where numpy bundles OpenBLAS, and np.linalg
PATHS = [True, False] if minimizer._LAPACK else [False]


@pytest.mark.parametrize("family", ["uniform", "graded", "one-heavy", "two-heavy"])
def test_transposed_hessian_is_the_hessian_on_the_certify_families(family, monkeypatch):
    for lapack in PATHS:
        with monkeypatch.context() as patch:
            seen = _watched(patch, lapack)
            for n in range(8, 41):
                for alpha in (0.5, 1.0, 3.0):
                    masses = MassVector(certify_masses(family, n))
                    assert minimize_f_k(AuxiliaryFunctional(alpha), masses).converged
        # one step solve per Newton step and one Cholesky per solve
        assert len(seen) > 2 * 33 * 3
        assert all(symmetric and same for symmetric, same in seen)


@pytest.mark.parametrize("heavy", [False, True], ids=["uniform", "one-heavy"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_transposed_hessian_is_the_hessian_at_n_256(alpha, heavy, monkeypatch):
    # the masses of the n = 256 entries of tests/frozen_outputs.py
    m = [1.0] * 255 + [300.0] if heavy else np.random.default_rng(256).uniform(0.5, 2.0, 256)
    for lapack in PATHS:
        with monkeypatch.context() as patch:
            seen = _watched(patch, lapack)
            res = minimize_f_k(AuxiliaryFunctional(alpha), MassVector(np.asarray(m)))
        assert res.converged and len(seen) == res.iterations + 1
        assert all(symmetric and same for symmetric, same in seen)
