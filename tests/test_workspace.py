"""The per-thread pair workspace.

``minimize_f_k`` and ``verify_cc`` evaluate into one workspace per thread,
laid out and keyed as ``potential._Workspace`` states. Reusing it must not
move a bit, threads must not share it, results must not alias it, bad
input must not reach it, a repeat call at the same n must allocate only
what it still allocates by design, and no module but ``potential`` may
name its buffers. Under the frame rule ``verify_cc`` and W at a
converged solve's minimizer and alpha build no chords and give the bits
of a miss there, and a failed solve leaves no key. The public evaluators
read the same frame and give the bits of a fresh thread whatever it held.
"""

import ast
import dataclasses
import inspect
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import cocircular.geometry as geometry
import cocircular.minimizer as minimizer
import cocircular.potential as potential
import cocircular.symmetry as symmetry
import cocircular.verifier as verifier
import reference_potential as ref
from cocircular import (TAU, AngleConfiguration, AuxiliaryFunctional, ConvergenceFailure,
                        DimensionError, DomainError, MassVector, UnsupportedExponent,
                        exclusion_verdicts, grad_theta_f_k, minimize_f_k,
                        pair_weight_matrix, verify_cc)
from conftest import (certify_masses, dirty_matrix, on_fresh_thread, ordered_angles,
                      random_masses)
from oracle import hessian_bound, hessian_theta, mirror


def _problem(n, alpha, seed):
    return AuxiliaryFunctional(alpha), random_masses(np.random.default_rng(seed), n)


def _key(res):
    return (res.theta_m.angles.tobytes(), res.f_value, res.grad_norm,
            res.iterations, res.converged)


def _solve(problem):
    return _key(minimize_f_k(*problem))


def _check(alpha, masses, config):
    # repr tells every float's bits apart, -0.0 from 0.0 included
    return repr(dataclasses.astuple(verify_cc(alpha, masses, config)))


def _concurrently(work):
    """Run each list of (call, args) on its own thread; the results per thread.

    A barrier starts the threads together and a short switch interval
    interleaves them finely, so workspaces are rebuilt while other threads
    are mid-call.
    """
    start = threading.Barrier(len(work), timeout=60)
    results = [None] * len(work)

    def run(i):
        start.wait()
        results[i] = [call(*args) for call, args in work[i]]

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
    return results


def _workspace_arrays(ws):
    for value in vars(ws).values():
        # the key is a tuple too, of bytes and a float
        for buf in value if isinstance(value, tuple) else (value,):
            if isinstance(buf, np.ndarray):
                yield buf


def _snapshot(ws):
    return [buf.tobytes() for buf in _workspace_arrays(ws)], ws.key


def test_concurrent_threads_match_serial_solves():
    # three threads, each alternating n = 256 and n = 64
    work = [[_problem(256, 1.0, 0), _problem(64, 0.5, 1), _problem(256, 3.0, 2)],
            [_problem(64, 3.0, 3), _problem(256, 0.5, 4), _problem(64, 1.0, 5)],
            [_problem(256, 1.0, 11), _problem(64, 1.0, 12), _problem(256, 0.5, 13)]]
    serial = [[_solve(p) for p in problems] for problems in work]
    results = _concurrently([[(_solve, (p,)) for p in problems] for problems in work])
    assert results == serial


def test_changing_n_on_one_thread_matches_fresh_solves():
    problems = [_problem(64, 1.0, 6), _problem(256, 1.0, 7), _problem(64, 3.0, 8)]
    fresh = [on_fresh_thread(_solve, p) for p in problems]
    assert [_solve(p) for p in problems] == fresh
    assert potential._local.ws.n == 64


def test_results_never_alias_the_workspace(monkeypatch):
    aux, m = _problem(64, 1.0, 9)
    res = minimize_f_k(aux, m)
    monkeypatch.setattr(minimizer, "_MAX_ITER", 2)
    with pytest.raises(ConvergenceFailure) as exc:
        minimize_f_k(aux, m, grad_tol=0.0)
    for angles in (res.theta_m.angles, exc.value.result.theta_m.angles):
        for buf in _workspace_arrays(potential._local.ws):
            assert not np.shares_memory(angles, buf)


def _interleaved_calls():
    """verify_cc at n = 256 and n = 64, each followed by a solve at the other n.

    The checks run at a solved configuration and at a random one, at
    alpha 1 and 3, so every call rebuilds the thread's workspace.
    """
    calls = []
    for seed, (n, other) in enumerate(((256, 64), (64, 256)) * 2):
        alpha = (1.0, 3.0)[seed // 2]
        aux, m = _problem(n, alpha, 20 + seed)
        rng = np.random.default_rng(30 + seed)
        for cfg in (minimize_f_k(aux, m).theta_m, ordered_angles(rng, n, TAU / (4 * n))):
            calls.append((_check, (alpha, m, cfg)))
            calls.append((_solve, (_problem(other, alpha, 40 + seed),)))
    return calls


def test_verify_interleaved_with_solves_matches_fresh_threads():
    calls = _interleaved_calls()
    fresh = [on_fresh_thread(call, *args) for call, args in calls]
    assert [call(*args) for call, args in calls] == fresh
    # three threads, each starting at a different call
    shifts = (0, 3, 6)
    work = [calls[s:] + calls[:s] for s in shifts]
    results = _concurrently(work)
    assert results == [fresh[s:] + fresh[:s] for s in shifts]


@pytest.mark.parametrize("args, error, message", [
    ((1.0, 8, 9, 1e-9), DimensionError, "8 masses but 9 angles"),
    ((-1.0, 8, 8, 1e-9), UnsupportedExponent, "alpha must be positive, got -1.0"),
    ((math.inf, 8, 8, 1e-9), UnsupportedExponent, "alpha must be a finite number"),
    ((1.0, 8, 8, math.nan), DomainError, "tol must be a nonnegative number, got nan"),
    ((1.0, 8, 8, -1.0), DomainError, "tol must be a nonnegative number, got -1.0"),
])
def test_bad_verify_input_leaves_the_workspace_untouched(args, error, message):
    alpha, n_masses, n_angles, tol = args
    rng = np.random.default_rng(15)
    aux, m = _problem(64, 1.0, 15)
    verify_cc(1.0, m, minimize_f_k(aux, m).theta_m)
    ws = potential._local.ws
    assert ws.key is not None and ws.key[1] == 1.0
    before = _snapshot(ws)
    with pytest.raises(error) as exc:
        verify_cc(alpha, MassVector(np.ones(n_masses)), ordered_angles(rng, n_angles), tol)
    assert str(exc.value) == message
    assert potential._local.ws is ws and ws.n == 64
    assert _snapshot(ws) == before


@pytest.mark.parametrize("where", ["held", "elsewhere", "other-n"])
@pytest.mark.parametrize("evaluator", [
    lambda aux, m, cfg: pair_weight_matrix(aux, cfg),
    grad_theta_f_k,
], ids=["pair_weight_matrix", "grad_theta_f_k"])
def test_public_evaluators_match_a_fresh_thread(counted, evaluator, where):
    builds, sines = counted
    aux, m = _problem(64, 1.0, 19)
    cfg = minimize_f_k(aux, m).theta_m
    assert potential._local.ws.key == (cfg.angles.tobytes(), 1.0)
    if where == "elsewhere":
        cfg = ordered_angles(np.random.default_rng(19), 64, TAU / 256)
    elif where == "other-n":
        aux, m = _problem(9, 1.0, 19)
        cfg = ordered_angles(np.random.default_rng(19), 9)
    del builds[:]
    out = evaluator(aux, m, cfg)
    # the held frame is read; any other point builds its chords once
    assert builds == ([] if where == "held" else [cfg.n])
    ws = potential._local.ws
    assert ws.n == cfg.n and ws.key == (cfg.angles.tobytes(), 1.0)
    assert not any(np.shares_memory(out, buf) for buf in _workspace_arrays(ws))
    assert out.tobytes() == on_fresh_thread(evaluator, aux, m, cfg).tobytes()
    # a repeat, a check there and the other evaluator build no chords
    del builds[:], sines[:]
    assert evaluator(aux, m, cfg).tobytes() == out.tobytes()
    verify_cc(1.0, m, cfg)
    pair_weight_matrix(aux, cfg)
    assert builds == [] and sines == []


def _weights(aux, config):
    return pair_weight_matrix(aux, config).tobytes()


# the alpha each "other-alpha" check runs at, after a solve at the key
_OTHER_ALPHA = {0.5: 3.0, 1.0: 0.5, 3.0: 1.0}


def _memo_case(case, n, alpha):
    """Leave this thread's workspace as ``case`` has it; what to check there.

    Returns the alpha, masses and configuration of the check and whether
    the workspace's key is that configuration's angles and alpha (a hit).
    """
    aux, m = _problem(n, alpha, 50 + n)
    if case == "convergence-failure":
        with pytest.MonkeyPatch.context() as patch, \
                pytest.raises(ConvergenceFailure) as exc:
            patch.setattr(minimizer, "_MAX_ITER", 3)
            minimize_f_k(aux, m, grad_tol=0.0)
        cfg = exc.value.result.theta_m
    else:
        cfg = minimize_f_k(aux, m).theta_m
    if case == "other-alpha":
        alpha = _OTHER_ALPHA[alpha]
    elif case == "nextafter":
        t = cfg.angles.copy()
        t[n // 2] = np.nextafter(t[n // 2], 0.0)
        cfg = AngleConfiguration(t)
    elif case == "other-n":
        _solve(_problem(n + 5, alpha, 60 + n))
    return alpha, m, cfg, case == "same-alpha"


@pytest.mark.parametrize("case", ["same-alpha", "other-alpha", "nextafter",
                                  "convergence-failure", "other-n"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [3, 8, 64, 256])
def test_memo_hit_matches_a_miss_bit_for_bit(n, alpha, case):
    alpha, m, cfg, hit = _memo_case(case, n, alpha)
    # the same angles at another alpha are a miss
    assert (potential._local.ws.key == (cfg.angles.tobytes(), alpha)) is hit
    aux = AuxiliaryFunctional(alpha)
    assert _weights(aux, cfg) == on_fresh_thread(_weights, aux, cfg)
    assert _check(alpha, m, cfg) == on_fresh_thread(_check, alpha, m, cfg)
    # the check leaves its own key behind
    assert potential._local.ws.key == (cfg.angles.tobytes(), alpha)


@pytest.mark.parametrize("exit_, scale, kwargs, message", [
    ("line-search", 1.0, {}, "line search stalled"),
    ("max-iter", 1.0, {"grad_tol": 0.0}, "within 3 Newton steps"),
    # masses this light fail the final positive-definite check at the start
    ("cholesky", 1e-170, {}, "not positive definite at the candidate"),
], ids=["line-search", "max-iter", "cholesky"])
def test_a_failed_solve_leaves_no_point(monkeypatch, exit_, scale, kwargs, message):
    # a converged solve at the same n leaves its key behind; a failing
    # exit must forget it and record none of its own
    if exit_ == "cholesky":
        aux, m = AuxiliaryFunctional(1.0), MassVector(np.array([1.0, 2.0, 5.0]))
    else:
        aux, m = _problem(64, 1.0, 18)
    minimize_f_k(aux, m)
    assert potential._local.ws.key is not None
    if exit_ == "line-search":
        # an Armijo constant no step can meet
        monkeypatch.setattr(minimizer, "_ARMIJO", 1e300)
    elif exit_ == "max-iter":
        monkeypatch.setattr(minimizer, "_MAX_ITER", 3)
    m = MassVector(m.masses * scale)
    with pytest.raises(ConvergenceFailure, match=message) as exc:
        minimize_f_k(aux, m, **kwargs)
    cfg = exc.value.result.theta_m
    assert potential._local.ws.key is None
    assert _check(1.0, m, cfg) == on_fresh_thread(_check, 1.0, m, cfg)


def _patch_callers(monkeypatch, owner, name, record):
    """Pass every call of the kernel ``owner.name`` through ``record`` first.

    Every package module that holds the kernel by name is patched, on
    every thread; the arguments pass through. Returns those modules.
    """
    kernel = getattr(owner, name)

    def recording(*args):
        record(*args)
        return kernel(*args)

    callers = [module for module_name, module in list(sys.modules.items())
               if module_name.split(".")[0] == "cocircular"
               and getattr(module, name, None) is kernel]
    for module in callers:
        monkeypatch.setattr(module, name, recording)
    return set(callers)


@pytest.fixture
def counted(monkeypatch):
    """Count chord builds, by n, and ``np.sin`` calls, on every thread.

    ``sin`` is patched on numpy, which the chords and ``potential._powers``
    call; arguments and buffers pass through.
    """
    builds, sines, sin = [], [], np.sin

    def counting_sin(*args, **kwargs):
        sines.append(np.size(args[0]))
        return sin(*args, **kwargs)

    # the one chord builder, _chords_at(ws, t)
    callers = _patch_callers(monkeypatch, potential, "_chords_at",
                             lambda ws, t: builds.append(t.size))
    assert {minimizer, potential} <= callers
    monkeypatch.setattr(np, "sin", counting_sin)
    return builds, sines


@pytest.mark.parametrize("n", [16, 40])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_exclusion_builds_only_the_chords_of_its_solve(monkeypatch, n, alpha):
    # every chord of the package comes from geometry._chords, whatever
    # builds its differences; one-heavy masses have swap certificates, so
    # verify_cc runs too, and W and that check read the solve's last frame
    aux, m = AuxiliaryFunctional(alpha), MassVector(certify_masses("one-heavy", n))
    differences = []
    callers = _patch_callers(monkeypatch, geometry, "_chords",
                             lambda du, out=None: differences.append(du.tobytes()))
    assert geometry in callers
    minimize_f_k(aux, m)
    solve, differences[:] = list(differences), []
    group, swap = exclusion_verdicts(aux, m)
    assert swap.excluded and group.excluded
    assert differences == solve


def test_checks_at_the_minimizer_build_no_chords(counted):
    builds, sines = counted
    n = 256
    aux, m = _problem(n, 1.0, 17)
    res = minimize_f_k(aux, m)
    del builds[:], sines[:]
    pairs = n * (n - 1) // 2
    # W and the check read the solve's frame: no chords and no sines
    pair_weight_matrix(aux, res.theta_m)
    verify_cc(1.0, m, res.theta_m)
    assert builds == [] and sines == []
    # a fresh thread holds no frame: one chord build and the sines of du
    on_fresh_thread(verify_cc, 1.0, m, res.theta_m)
    assert builds == [n] and sines == [pairs, pairs]


def test_a_check_at_another_alpha_is_a_full_miss(counted):
    builds, sines = counted
    n = 256
    aux, m = _problem(n, 1.0, 17)
    cfg = minimize_f_k(aux, m).theta_m
    pairs = n * (n - 1) // 2
    checks = []
    # the solve's angles at alpha 3 rebuild the chords and the sines of du;
    # a repeat at 3 builds nothing, and alpha 1 is a miss again
    for alpha, hit in ((3.0, False), (3.0, True), (1.0, False)):
        del builds[:], sines[:]
        checks.append((alpha, _check(alpha, m, cfg)))
        assert (builds, sines) == (([], []) if hit else ([n], [pairs, pairs]))
    for alpha, check in checks:
        assert check == on_fresh_thread(_check, alpha, m, cfg)


@pytest.mark.parametrize("n", [2, 3, 64, 256])
def test_workspace_holds_nine_pair_buffers_and_one_matrix(n):
    # and its index maps: j and k, one intp per pair, and the n^2 gather
    ws = on_fresh_thread(potential._workspace, n)
    buffers = {id(buf): buf for buf in _workspace_arrays(ws)}
    pairs = n * (n - 1) // 2
    maps = np.dtype(np.intp).itemsize * (2 * pairs + n * n)
    assert sum(buf.nbytes for buf in buffers.values()) <= 8 * (9 * pairs + n * n) + maps


def test_repeat_verify_allocates_no_pair_buffer():
    n = 256
    aux, m = _problem(n, 1.0, 16)
    cfg = minimize_f_k(aux, m).theta_m
    first = _check(1.0, m, cfg)  # builds this thread's workspace for n
    tracemalloc.start()
    try:
        rep = _check(1.0, m, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep == first
    # The chords, the chord powers, both residual matrices and the pair
    # terms all live in the workspace. What is left are n-vectors: the
    # positions and their mass-weighted sum, the gaps, the two residual
    # sums and their reductions; 64 of them bound it. A pair buffer, or
    # the copy take makes of read-only pair indices, is alone
    # n(n - 1)/2 = 127.5 n doubles.
    assert peak < 8 * 64 * n


def test_repeat_solve_allocates_no_chords():
    n = 256
    aux, m = _problem(n, 1.0, 10)
    minimize_f_k(aux, m)  # builds this thread's workspace for n
    tracemalloc.start()
    try:
        res = minimize_f_k(aux, m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.converged
    # The points' du and ru and the gathered angles live in the workspace,
    # so the peak is the final Cholesky factor, (n - 1)^2 doubles, plus up
    # to 64 n-vectors (angles, gaps, steps, gradients, row sums). LAPACK's
    # copies for the linear solve are not numpy arrays. Chords built afresh
    # would add n(n - 1) doubles.
    assert peak < 8 * ((n - 1) ** 2 + 64 * n)


def test_solves_at_many_n_retain_one_workspace():
    # the index maps live and die with the workspace: eight n on one thread
    # leave the last n's workspace and maps, and nothing cached per n
    sizes = range(512, 569, 8)

    def retained():
        # a small solve first, so that no lazy import is counted
        minimize_f_k(*_problem(8, 1.0, 8))
        tracemalloc.start()
        try:
            for n in sizes:
                assert minimize_f_k(*_problem(n, 1.0, n)).converged
            return tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()

    n = sizes[-1]
    pairs = n * (n - 1) // 2
    workspace = 8 * (9 * pairs + n * n) + np.dtype(np.intp).itemsize * (2 * pairs + n * n)
    assert on_fresh_thread(retained) < workspace + 2**20


def _verdicts(n, alpha, family):
    group, swap = exclusion_verdicts(AuxiliaryFunctional(alpha),
                                     MassVector(certify_masses(family, n)))
    # repr tells every margin's bits apart
    return [repr((v.certificates, v.f_value, v.theta_m.angles.tobytes(), v.inconsistent))
            for v in (group, swap)]


def test_concurrent_exclusions_match_one_thread():
    # two threads at n = 40 and 64, each switching n and alpha on every call
    work = [[(40, 1.0, "one-heavy"), (64, 0.5, "uniform"), (40, 3.0, "two-heavy")],
            [(64, 1.0, "one-heavy"), (40, 0.5, "uniform"), (64, 3.0, "graded")]]
    serial = [[_verdicts(*args) for args in calls] for calls in work]
    results = _concurrently([[(_verdicts, args) for args in calls] for calls in work])
    assert results == serial


def _workspaces_named(tree):
    """Nodes in tree that hold a workspace: the calls that return one and
    the names bound to such a call."""
    calls = [node for node in ast.walk(tree) if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) in ("_workspace", "_frame", "_Workspace")]
    names = {target.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
             and node.value in calls for target in node.targets if isinstance(target, ast.Name)}
    return calls, names


@pytest.mark.parametrize("module", [minimizer, verifier, symmetry],
                         ids=lambda module: module.__name__.split(".")[-1])
def test_only_potential_names_a_buffer(module):
    # outside potential a workspace is passed to its kernels, and only
    # its key is read or written
    tree = ast.parse(inspect.getsource(module))
    calls, names = _workspaces_named(tree)
    named = [ast.unparse(node) for node in ast.walk(tree)
             if isinstance(node, ast.Attribute) and node.attr != "key"
             and (node.value in calls or getattr(node.value, "id", None) in names)]
    assert named == []
    assert bool(calls) is (module is not symmetry)


@pytest.mark.parametrize("n", [2, 3, 8, 40])
def test_diagonal_writes_into_a_dirty_buffer(n):
    rng = np.random.default_rng(n)
    aux, m = AuxiliaryFunctional(1.0), random_masses(rng, n)
    cfg = ordered_angles(rng, n)
    # a workspace whose pair buffers are all NaN and whose matrix is stale
    ws = on_fresh_thread(potential._workspace, n)
    for buf in _workspace_arrays(ws):
        if buf.dtype == float:  # not the index maps
            buf.fill(np.nan)
    ws.full[...] = dirty_matrix(n)
    potential._chords_at(ws, cfg.angles)
    ru = ws.ru.copy()
    pairs = np.concatenate((ru, -ru))
    mirrored = potential._mirror(ws, pairs, dirty_matrix(n))
    assert mirrored.tobytes() == mirror(n, ru, -ru).tobytes()
    # +0.0 on the diagonal, not the stale -0.0
    assert not np.signbit(mirrored.diagonal()).any()
    potential._mass_pairs(ws, m.masses)
    potential._powers(ws, aux.alpha)
    gradient = potential._grad_theta(aux, m.masses, ws)
    assert gradient.tobytes() == ref.grad_theta_f_k(aux, m, cfg).tobytes()
    hessian = potential._hessian_theta(aux, ws)
    assert hessian.tobytes() == ref.hessian_theta_f_k(aux, m, cfg).tobytes()
    # the cosine form, within the bound of _hessian_theta's docstring
    assert (np.abs(hessian - hessian_theta(aux, m, cfg)) <= hessian_bound(aux, m, cfg)).all()
