"""alpha_star's settled steps against the bisection that evaluates every one.

``alpha_star`` settles a step without a kernel where bounds on g decide
its sign and its miss of tol: the closed form of ``_g_closed_form`` in
the bracket, lines through the points already decided in the bisection,
each widened by the a-priori bound ``_g_error`` on ``_g``. The outcome
(root and g, or error class and message) must be the one of
``reference_scanner.alpha_star_every_step``, which runs a kernel at every
step, and the bounds must hold against a 50-digit g.
"""

import math

import mpmath
import pytest

import reference_scanner as ref
from cocircular import CocircularError, alpha_star, condition_threshold
from cocircular.scanner import _alpha_star, _g, _g_closed_form, _g_error, _g_fast, _sine_table


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

    def fast(n, table, alpha):
        calls.append(alpha)
        return _g_fast(n, table, alpha)

    monkeypatch.setattr("cocircular.scanner._g", exact)
    monkeypatch.setattr("cocircular.scanner._g_fast", fast)
    return calls


@pytest.mark.parametrize("n", [7, 99, 500, 1000])
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
