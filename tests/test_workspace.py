"""The Newton loop's per-thread workspace.

``minimize_f_k`` keeps its pair buffers and its n x n mirror target in one
workspace per thread, holding the last n solved there. Reusing it must not
move a bit, threads must not share it, results must not alias it, and a
repeat solve at the same n must allocate only what the loop still
allocates by design.
"""

import sys
import threading
import tracemalloc

import numpy as np
import pytest

import cocircular.minimizer as minimizer
from cocircular import AuxiliaryFunctional, ConvergenceFailure, minimize_f_k
from conftest import random_masses


def _problem(n, alpha, seed):
    return AuxiliaryFunctional(alpha), random_masses(np.random.default_rng(seed), n)


def _key(res):
    return (res.theta_m.angles.tobytes(), res.f_value, res.grad_norm,
            res.iterations, res.converged, res.min_gap)


def _solve(problem):
    return _key(minimize_f_k(*problem))


def _on_fresh_thread(problem):
    """Solve on a new thread, so with a workspace built for this solve alone."""
    out = []

    def run():
        assert getattr(minimizer._local, "ws", None) is None
        out.append(_solve(problem))

    thread = threading.Thread(target=run)
    thread.start()
    thread.join(timeout=120)
    assert out, "the solve on the fresh thread raised or did not finish"
    return out[0]


def _workspace_arrays():
    ws = minimizer._local.ws
    for value in vars(ws).values():
        yield from value if isinstance(value, tuple) else (value,)


def test_concurrent_threads_match_serial_solves():
    # three threads, each alternating n = 256 and n = 64, so workspaces are
    # rebuilt while other threads are mid-solve; a short switch interval
    # interleaves them finely
    work = [[_problem(256, 1.0, 0), _problem(64, 0.5, 1), _problem(256, 3.0, 2)],
            [_problem(64, 3.0, 3), _problem(256, 0.5, 4), _problem(64, 1.0, 5)],
            [_problem(256, 1.0, 11), _problem(64, 1.0, 12), _problem(256, 0.5, 13)]]
    serial = [[_solve(p) for p in problems] for problems in work]
    start = threading.Barrier(len(work), timeout=60)
    results = [None] * len(work)

    def run(i):
        start.wait()
        results[i] = [_solve(p) for p in work[i]]

    threads = [threading.Thread(target=run, args=(i,)) for i in range(len(work))]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert results == serial


def test_changing_n_on_one_thread_matches_fresh_solves():
    problems = [_problem(64, 1.0, 6), _problem(256, 1.0, 7), _problem(64, 3.0, 8)]
    fresh = [_on_fresh_thread(p) for p in problems]
    assert [_solve(p) for p in problems] == fresh
    assert minimizer._local.ws.n == 64


def test_results_never_alias_the_workspace():
    aux, m = _problem(64, 1.0, 9)
    res = minimize_f_k(aux, m)
    with pytest.raises(ConvergenceFailure) as exc:
        minimize_f_k(aux, m, grad_tol=0.0, max_iter=2)
    for angles in (res.theta_m.angles, exc.value.result.theta_m.angles):
        for buf in _workspace_arrays():
            assert not np.shares_memory(angles, buf)


def test_repeat_solve_allocates_only_by_design():
    n = 256
    pairs = n * (n - 1) // 2
    aux, m = _problem(n, 1.0, 10)
    minimize_f_k(aux, m)  # builds this thread's workspace for n
    tracemalloc.start()
    try:
        res = minimize_f_k(aux, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    # What a repeat solve still allocates, in doubles. _pair_chords builds
    # fresh du and ru for every point; the final Cholesky factor is
    # (n - 1)^2 and LAPACK's copies for the linear solve are not numpy
    # arrays. The peak is the larger of
    #   the final Cholesky factor next to the point's du and ru, and
    #   the line search: the point's du and ru, the trial's du and the
    #   gather t[k] it subtracts (the trial's ru follows once that is freed);
    # plus up to 64 n-vectors (angles, gaps, steps, gradients, row sums).
    chords = 2 * pairs
    by_design = max((n - 1) ** 2 + chords, 2 * chords) + 64 * n
    assert peak < 8 * by_design
