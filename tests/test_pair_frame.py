"""The packed pair frame against the reference potential, bit for bit.

Each (m, t) point builds its packed chords once and derives f, the angle
gradient, the angle Hessian, W and the CC residuals from them.
``reference_potential`` rebuilds the full chord matrix for every quantity;
the arithmetic of every entry is the same and the mirrored matrices are
summed in the same order, so every float must match exactly.

The public gradient, W and ``verify_cc`` are compared directly. f and the
Hessian have no public function: the Newton loop evaluates them from the
packed frame, so the solves below check them bit for bit. Each must
match ``ref.minimize`` in its final angles, f, gradient norm and
iteration count, and every step it took feeds into those.
"""

import dataclasses
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocircular.minimizer as minimizer
import cocircular.potential as potential
import reference_potential as ref
from cocircular import (
    AuxiliaryFunctional,
    ConvergenceFailure,
    MassVector,
    TAU,
    grad_theta_f_k,
    k_min,
    minimize_f_k,
    pair_weight_matrix,
    regular_ngon,
    verify_cc,
)
from conftest import ordered_angles, random_masses


def _problem(seed, n, alpha, k_scale):
    rng = np.random.default_rng(seed)
    aux = AuxiliaryFunctional(alpha, k_scale * k_min(alpha))
    masses = MassVector(10.0 ** rng.uniform(-3.0, 3.0, n))
    return aux, masses, ordered_angles(rng, n)


PROBLEMS = given(st.integers(0, 2**32 - 1), st.integers(2, 40),
                 st.sampled_from([0.5, 1.0, 1.7, 3.0]), st.sampled_from([1.0, 4.0]))


@PROBLEMS
@settings(max_examples=80, deadline=None)
def test_public_functions_match_reference(seed, n, alpha, k_scale):
    aux, m, cfg = _problem(seed, n, alpha, k_scale)
    assert np.array_equal(grad_theta_f_k(aux, m, cfg), ref.grad_theta_f_k(aux, m, cfg))
    assert np.array_equal(pair_weight_matrix(aux, cfg), ref.pair_weight_matrix(aux, cfg))
    assert _fields(verify_cc(aux.alpha, m, cfg)) == _fields(ref.verify_cc(aux.alpha, m, cfg))


def _fields(report):
    return dataclasses.astuple(report)


@PROBLEMS
@settings(max_examples=60, deadline=None)
def test_minimizer_matches_reference_loop(seed, n, alpha, k_scale):
    aux, m, _ = _problem(seed, n, alpha, k_scale)
    _assert_same_solve(minimize_f_k(aux, m), ref.minimize(aux, m))


@given(st.integers(0, 2**32 - 1), st.integers(8, 40), st.sampled_from([1, 2]),
       st.sampled_from([0.5, 1.0, 3.0]))
@settings(max_examples=60, deadline=None)
def test_heavy_masses_match_reference_loop(seed, n, heavy, alpha):
    # one or two heavy bodies, heavy/light ratio log-uniform in 2..1e4: the
    # certify benchmark's few-distinct families, whose solves take more
    # steps and clip at the ordering boundary more often
    ratio = np.exp(np.random.default_rng(seed).uniform(np.log(2.0), np.log(1e4)))
    m = np.ones(n)
    m[-1] = ratio
    if heavy == 2:
        m[2] = ratio
    aux, masses = AuxiliaryFunctional(alpha), MassVector(m)
    _assert_same_solve(minimize_f_k(aux, masses), ref.minimize(aux, masses))


def _assert_same_solve(res, reference, converged=True):
    angles, f, gnorm, iterations = reference
    assert np.array_equal(res.theta_m.angles, angles)
    assert (res.f_value, res.grad_norm, res.iterations, res.converged) \
        == (f, gnorm, iterations, converged)


def test_regularization_past_a_double_matches_reference():
    # the trace that scales the regularization overflows here, and both
    # loops then sum the diagonal scaled by 2**-64
    aux = AuxiliaryFunctional(3.0)
    m = MassVector(np.array([1.0, 2.0, 5.0, 3.0, 1.0, 4.0]) * 2.0 ** 508)
    _assert_same_solve(minimize_f_k(aux, m), ref.minimize(aux, m))


@pytest.mark.parametrize("max_iter", [0, 3, 200])
@pytest.mark.parametrize("seed", range(3))
def test_failures_carry_the_reference_iterate(monkeypatch, seed, max_iter):
    # grad_tol = 0 is met only by a zero gradient, so each solve runs out
    # of steps and carries its last accepted iterate
    monkeypatch.setattr(minimizer, "_MAX_ITER", max_iter)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(8, 41))
    aux, m = AuxiliaryFunctional(1.0), MassVector(10.0 ** rng.uniform(-3.0, 3.0, n))
    with pytest.raises(ConvergenceFailure) as new:
        minimize_f_k(aux, m, grad_tol=0.0)
    with pytest.raises(ConvergenceFailure) as old:
        ref.minimize(aux, m, grad_tol=0.0, max_iter=max_iter)
    assert str(new.value) == str(old.value)
    _assert_same_solve(new.value.result, old.value.result, converged=False)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [64, 255, 256, 257, 512])
def test_benchmark_sizes_match_reference(n, alpha):
    # the sizes the Newton benchmark runs at, where the hypothesis draws
    # above (n <= 40) do not reach
    rng = np.random.default_rng(1000 * n + int(4 * alpha))
    aux = AuxiliaryFunctional(alpha)
    m = random_masses(rng, n)
    res = minimize_f_k(aux, m)
    _assert_same_solve(res, ref.minimize(aux, m))
    for cfg in (ordered_angles(rng, n, TAU / (4 * n)), res.theta_m):
        assert np.array_equal(grad_theta_f_k(aux, m, cfg), ref.grad_theta_f_k(aux, m, cfg))
        assert np.array_equal(pair_weight_matrix(aux, cfg), ref.pair_weight_matrix(aux, cfg))
        assert _fields(verify_cc(alpha, m, cfg)) == _fields(ref.verify_cc(alpha, m, cfg))


@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 4.5])
def test_verify_cc_matches_reference_on_every_pow_branch(alpha):
    # r**-alpha and r**-(alpha + 2) between them take every branch of _pow:
    # the bare reciprocal (-1), the multiply chains (-2, -3, -4) and
    # np.power (-0.25, ..., -6.5); n = 256 runs on a workspace that the
    # smaller sizes and the solves before it left behind
    rng = np.random.default_rng(int(8 * alpha))
    aux = AuxiliaryFunctional(alpha)
    for n in (3, 17, 256):
        m = MassVector(10.0 ** rng.uniform(-3.0, 3.0, n))
        for cfg in (ordered_angles(rng, n, TAU / (4 * n)), minimize_f_k(aux, m).theta_m):
            assert _fields(verify_cc(alpha, m, cfg)) == _fields(ref.verify_cc(alpha, m, cfg))


@pytest.fixture
def chord_builds(monkeypatch):
    """Count calls of the one chord builder.

    Every pair frame, the Newton loop's included, builds its chords
    through ``potential._chords_at``; every package module that holds it
    by name is patched, and the workspace passes through.
    """
    calls = []
    build = potential._chords_at

    def counting(ws, t):
        calls.append(t.size)
        return build(ws, t)

    callers = [module for name, module in list(sys.modules.items())
               if name.split(".")[0] == "cocircular"
               and getattr(module, "_chords_at", None) is build]
    assert minimizer in callers and potential in callers
    for module in callers:
        monkeypatch.setattr(module, "_chords_at", counting)
    return calls


def test_one_chord_build_per_report(chord_builds):
    verify_cc(1.0, MassVector(np.array([1.0, 1.0, 2.0])), regular_ngon(3))
    assert len(chord_builds) == 1


@pytest.mark.parametrize("n, alpha, seed", [(3, 1.0, None)] + [
    (n, alpha, seed) for n, alpha in ((64, 0.5), (256, 3.0)) for seed in range(4)
])
def test_minimizer_builds_chords_once_per_point(chord_builds, n, alpha, seed):
    # every step of these solves is accepted at its first trial, so the
    # points are the start plus one per iteration
    if seed is None:
        m = MassVector(np.array([1.0, 1.0, 2.0]))
    else:
        m = random_masses(np.random.default_rng(seed), n)
    res = minimize_f_k(AuxiliaryFunctional(alpha), m)
    assert res.converged
    assert len(chord_builds) == res.iterations + 1
