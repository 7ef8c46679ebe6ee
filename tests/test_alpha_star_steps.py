"""alpha_star's settled steps against the bisection that evaluates every one.

``alpha_star`` settles a step without a kernel where bounds on g decide
its sign and its miss of tol: the closed form of ``_g_closed_form`` in
the bracket and lines through the points already decided in the
bisection, each widened by the a-priori bound ``_g_error`` on ``_g``;
every other step runs ``_g``. The outcome (root and g, or error class
and message) must be the one of ``reference_scanner.alpha_star_every_step``,
which runs ``_g`` at every step, and the bounds must hold against a
50-digit g.
"""

import math

import mpmath
import pytest

import reference_scanner as ref
from cocircular import CocircularError, alpha_star, condition_threshold
from cocircular.scanner import _alpha_star, _g, _g_closed_form, _g_error, _sine_table


def _outcome(star, n, tol):
    try:
        return star(n, tol)
    except CocircularError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("tol", [1e-12, 0.0, 1e-6])
def test_outcomes_match_the_every_step_loop(tol):
    for n in range(3, 1201):
        assert _outcome(_alpha_star, n, tol) == _outcome(ref.alpha_star_every_step, n, tol), n


@pytest.mark.parametrize("n, tol", [(5000, 1e-15), (20000, 1e-9), (100001, 1e-12)])
def test_outcomes_match_the_every_step_loop_at_large_n(n, tol):
    assert _outcome(_alpha_star, n, tol) == _outcome(ref.alpha_star_every_step, n, tol)


def _counting_kernels(monkeypatch):
    calls = []

    def exact(n, table, alpha):
        calls.append(alpha)
        return _g(n, table, alpha)

    monkeypatch.setattr("cocircular.scanner._g", exact)
    return calls


@pytest.mark.parametrize("n", [7, 99, 101, 500, 1000, 10**4])
def test_few_steps_run_a_kernel(monkeypatch, n):
    # the every-step loop ran 31 to 43 kernels at these n
    calls = _counting_kernels(monkeypatch)
    root = alpha_star(n)
    assert 1 <= len(calls) <= 10 and calls[-1] == root


@pytest.mark.parametrize("n", [6, 7, 500, 10**4])
def test_one_threshold_per_alpha_tried(monkeypatch, n):
    # a settled step asks for its threshold once, as an evaluated one does,
    # and the bracket never asks twice for the alpha its halving ended on
    alphas = []
    monkeypatch.setattr("cocircular.scanner.condition_threshold",
                        lambda a: alphas.append(a) or condition_threshold(a))
    root = alpha_star(n)
    assert alphas[-1] == root and len(set(alphas)) == len(alphas)


def test_the_bracket_costs_no_kernel_at_large_n(monkeypatch):
    # the halvings from 1/64 down to 2**-16 all settle in closed form, and
    # only bisection midpoints, never powers of 2, run a kernel
    calls = _counting_kernels(monkeypatch)
    assert 2.0 ** -16 < alpha_star(10**5) < 2.0 ** -15
    assert calls and not any(math.frexp(a)[0] == 0.5 for a in calls)


@pytest.mark.parametrize("n", [7, 99, 500])
def test_no_line_is_drawn_where_g_could_overflow(monkeypatch, n):
    # a kernel g from the root on that leaves no headroom below inf: once
    # one is a point of the bisection, no line decides a step, and every
    # step after it runs the kernel
    root = alpha_star(n)
    events = []

    def kernel(n, table, alpha):
        events.append(("g", alpha))
        return 1e308 if alpha >= root else _g(n, table, alpha)

    monkeypatch.setattr("cocircular.scanner._g", kernel)
    monkeypatch.setattr("cocircular.scanner.condition_threshold",
                        lambda a: events.append(("t", a)) or condition_threshold(a))
    alpha_star(n)
    first = events.index(next(e for e in events if e[0] == "g" and e[1] >= root))
    steps = [a for kind, a in events[first + 1:] if kind == "t"]
    assert len(steps) > 20
    assert events[first + 1:] == [e for a in steps for e in (("t", a), ("g", a))]

# alphas from 2**-18 to 64: every power of 2 between, the integers of
# _g's (1/s)**alpha branch, and points off the binary grid
G_ALPHAS = [2.0 ** e for e in range(-18, 7)] + [3.0, 0.3, 0.7, 1.5, 2.5, 5.5, 37.123, 63.9]


def _true_g(logs, n, alpha):
    """g(n, alpha) to 50 digits from the logs ln csc(j pi / n) of the table."""
    total = 2 * mpmath.fsum(mpmath.exp(alpha * x) for x in logs)
    return (total + (n % 2 == 0)) / n


@pytest.mark.parametrize("n", [3, 4, 7, 50, 101, 1000, 10**4])
def test_bounds_hold_against_a_50_digit_g(n):
    table = _sine_table(n)
    k = len(table)
    with mpmath.workdps(50):
        logs = [-mpmath.log(mpmath.sin(mpmath.mpf(j) * mpmath.pi / n)) for j in range(1, k + 1)]
        for alpha in G_ALPHAS:
            true = _true_g(logs, n, alpha)
            exact = _g(n, table, alpha)
            assert abs(exact - true) <= _g_error(k, alpha, float(true)), (n, alpha)
            below, above = _g_closed_form(n, alpha)
            assert below <= true <= above, (n, alpha)


# n alpha_star(n) -> 1 / (ln 2 - 1/4), from the first-order expansion of g
LARGE_N_LIMIT = 1.0 / (math.log(2.0) - 0.25)


def test_large_n_limit_and_closed_form_at_the_root():
    # measured: n alpha* - L = 0.032, 0.0043, 5.5e-4 and 6.6e-5. The root
    # is not compared with the alphas the closed form leaves open: at
    # n = 10**5 and 10**6 it lies 2-3e-13 below them, inside tol
    tol = 1e-12
    misses = []
    for n in (10**3, 10**4, 10**5, 10**6):
        root, g = _alpha_star(n, tol)
        threshold = condition_threshold(root)
        assert abs(g - threshold) <= tol
        misses.append(abs(n * root - LARGE_N_LIMIT))
        # the closed form, which runs no kernel, brackets the true g, and
        # _g's value lies within _g_error of it
        err = _g_error((n - 1) // 2, root, g)
        below, above = _g_closed_form(n, root)
        assert below - threshold <= tol + err and above - threshold >= -tol - err, n
    assert misses == sorted(misses, reverse=True) and misses[-1] < 1e-4
