import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocircular
import reference_scanner as ref
from cocircular import (
    AuxiliaryFunctional,
    InvalidArity,
    RegionNotClosed,
    UnsupportedExponent,
    alpha_star,
    condition_threshold,
    g_value,
    scan_region,
)
from cocircular.scanner import (_ALPHA_SEED, _FILTER_MIN_TERMS, _alpha_star, _g, _g_bound,
                                _g_fast, _sine_table)


def test_hexagon_closed_form():
    # (1/6)(2 csc(pi/6) + 2 csc(pi/3) + 1) = 5/6 + 2/(3 sqrt(3))
    exact = 5.0 / 6.0 + 2.0 * math.sqrt(3.0) / 9.0
    assert abs(g_value(6, 1.0) - exact) < 1e-12


def test_quadratic_exponent_closed_form():
    for n in range(3, 20):
        assert abs(g_value(n, 2.0) - (n * n - 1.0) / (3.0 * n)) < 1e-12


def test_frozen_values():
    assert abs(g_value(7, 1.0) - 1.3170084976928496) < 1e-15
    assert abs(g_value(12, 0.5) - 1.1935177239539403) < 1e-15
    assert condition_threshold(1.0) == 1.25
    assert condition_threshold(2.5) == 1.625


def test_integer_fast_path_matches_general_power():
    for n in (3, 4, 7, 11):
        for a in (1, 2, 3, 4):
            direct = sum(
                math.sin(j * math.pi / n) ** -float(a) for j in range(1, n)
            ) / n
            assert abs(g_value(n, float(a)) - direct) < 1e-13


@given(st.integers(3, 30), st.floats(0.1, 4.0))
@settings(max_examples=80, deadline=None)
def test_monotone_in_n_and_alpha(n, alpha):
    assert g_value(n + 1, alpha) > g_value(n, alpha)
    assert g_value(n, alpha * 1.01) > g_value(n, alpha)


def test_scan_region_cells():
    cells = scan_region(range(3, 9), [0.5, 1.0, 2.0])
    assert [(c.n, c.alpha) for c in cells] == [
        (n, a) for n in range(3, 9) for a in (0.5, 1.0, 2.0)
    ]
    for c in cells:
        assert c.g_value == g_value(c.n, c.alpha)
        assert c.threshold == condition_threshold(c.alpha)
        assert c.holds == (c.g_value <= c.threshold)
    holds_at_one = {c.n for c in cells if c.alpha == 1.0 and c.holds}
    assert holds_at_one == {3, 4, 5, 6}


def test_scan_region_edge_at_quadratic_exponent():
    cells = {c.n: c for c in scan_region([4, 5], [2.0])}
    assert abs(cells[4].g_value - 1.25) < 1e-12
    assert cells[4].holds  # g(4, 2) = 5/4 <= 3/2
    assert not cells[5].holds  # g(5, 2) = 8/5 > 3/2


def test_scan_region_dedups_and_sorts():
    cells = scan_region([5, 3, 5], [1.0, 0.5, 1.0])
    assert [(c.n, c.alpha) for c in cells] == [
        (3, 0.5), (3, 1.0), (5, 0.5), (5, 1.0)
    ]


def _holds_except_at_four(ns, alphas):
    return [[10.0 if n == 4 else 0.0] * len(alphas) for n in ns]


def test_scan_region_rejects_region_not_downward_closed(monkeypatch):
    # scan_region evaluates g through the grid block kernel, so the fake goes there
    monkeypatch.setattr("cocircular.scanner._g_block", _holds_except_at_four)
    with pytest.raises(RegionNotClosed):
        scan_region(range(3, 7), [1.0])


def test_scan_region_check_survives_optimize_flag():
    script = (
        "import cocircular.scanner as s\n"
        "s._g_block = lambda ns, alphas: [[10.0 if n == 4 else 0.0] * len(alphas) for n in ns]\n"
        "try:\n"
        "    s.scan_region(range(3, 7), [1.0])\n"
        "except s.RegionNotClosed:\n"
        "    print('raised')\n"
    )
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-O", "-c", script], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout == "raised\n"


def test_alpha_star_frozen():
    a6 = alpha_star(6)
    a7 = alpha_star(7)
    assert abs(a6 - 1.1110131188252126) < 1e-10
    assert abs(a7 - 0.81064311028603697) < 1e-10
    assert a6 > 1.0 > a7
    for n, a in ((6, a6), (7, a7)):
        assert abs(g_value(n, a) - condition_threshold(a)) <= 1e-12


def test_alpha_star_frozen_at_a_million():
    assert alpha_star(10**6) == 2.256652805954218e-06


def test_alpha_star_separates_region():
    for n in (4, 5, 6, 9, 13):
        a = alpha_star(n)
        assert g_value(n, 0.9 * a) < condition_threshold(0.9 * a)
        assert g_value(n, 1.1 * a) > condition_threshold(1.1 * a)


def test_validation():
    with pytest.raises(InvalidArity):
        g_value(2, 1.0)
    with pytest.raises(UnsupportedExponent):
        g_value(5, 0.0)
    with pytest.raises(UnsupportedExponent):
        g_value(5, -1.0)
    with pytest.raises(UnsupportedExponent):
        g_value(5, float("nan"))
    with pytest.raises(InvalidArity):
        alpha_star(2)


@pytest.mark.parametrize("n", [6.5, 6.0, "6", None])
def test_non_integer_n_is_invalid_arity(n):
    with pytest.raises(InvalidArity):
        g_value(n, 1.0)
    with pytest.raises(InvalidArity):
        alpha_star(n)
    with pytest.raises(InvalidArity):
        scan_region([5, n], [1.0])


def test_alpha_checked_like_the_functional():
    with pytest.raises(UnsupportedExponent):
        g_value(5, "1")
    with pytest.raises(UnsupportedExponent):
        scan_region([5], ["1"])
    with pytest.raises(UnsupportedExponent):
        AuxiliaryFunctional("1")
    alpha = np.float32(1)
    assert AuxiliaryFunctional(alpha).alpha == 1.0
    assert g_value(5, alpha) == g_value(5, 1.0)
    assert scan_region([5], [alpha]) == scan_region([5], [1.0])


def test_numpy_integer_n_is_an_integer():
    assert g_value(np.int64(7), 1.0) == g_value(7, 1.0)
    assert scan_region(np.arange(3, 6), [1.0]) == scan_region(range(3, 6), [1.0])


@pytest.mark.parametrize("n, low", [(100, 0.96), (1000, 0.995), (10000, 0.995)])
def test_alpha_star_asymptotic_law(n, low):
    # prod_j sin(j pi / n) = n / 2**(n-1) gives, to first order in alpha,
    # alpha*(n) ~ 1 / ((n-1) ln 2 - ln n - n/4), approached from below
    ratio = alpha_star(n) * ((n - 1) * math.log(2.0) - math.log(n) - n / 4.0)
    assert low <= ratio <= 1.0


# the vectorized filter in alpha_star against the exact kernel

# every n up to 300, then a spread of both parities up to 4000
FILTER_NS = list(range(3, 301)) + list(range(301, 4001, 13))
FILTER_TOLS = (0.0, 1e-15, 1e-12, 1e-6)


def _filter_alphas(n):
    # the bracket points 2**j / 64, which include the integers 1, 2 and 4
    # of _g's (1/s)**alpha branch, and points ever closer to the root
    root = alpha_star(n)
    near = [root * (1.0 + sign * 10.0 ** -p) for p in range(3, 16) for sign in (1, -1)]
    return [_ALPHA_SEED * 2.0 ** j for j in range(-12, 13)] + near


def test_fast_psi_within_bound_and_never_contradicts_exact():
    for n in FILTER_NS:
        table = _sine_table(n)
        for alpha in _filter_alphas(n):
            threshold = condition_threshold(alpha)
            with np.errstate(over="ignore"):
                fast = _g_fast(n, table, alpha)
            bound = _g_bound(len(table), fast, threshold)
            psi_fast = fast - threshold
            psi_exact = ref.g_value(n, alpha) - threshold
            assert abs(psi_fast - psi_exact) <= bound, (n, alpha)
            for tol in FILTER_TOLS:
                # the rule alpha_star's steps decide by
                if abs(psi_fast) > tol + bound:
                    assert (psi_fast < 0.0) == (psi_exact < 0.0), (n, alpha, tol)
                    assert abs(psi_exact) > tol, (n, alpha, tol)


def test_filter_leaves_few_steps_to_the_exact_kernel(monkeypatch):
    calls, fast_calls = [], []

    def counting(n, table, alpha):
        calls.append(alpha)
        return _g(n, table, alpha)

    def fast(n, table, alpha):
        fast_calls.append(alpha)
        return _g_fast(n, table, alpha)

    monkeypatch.setattr("cocircular.scanner._g", counting)
    monkeypatch.setattr("cocircular.scanner._g_fast", fast)
    root = alpha_star(500)
    # the step that ends the bisection always runs _g
    assert 1 <= len(calls) <= 3 and calls[-1] == root
    del calls[:], fast_calls[:]
    # below the size cut every evaluated step runs _g, and bounds on g
    # settle all but a few of the steps
    n = 2 * _FILTER_MIN_TERMS - 1
    root = alpha_star(n)
    assert not fast_calls and 1 <= len(calls) <= 10 and calls[-1] == root


def test_alpha_star_builds_one_table_for_the_filter(monkeypatch):
    # the scalar kernel's floats and the filter's array come from one table
    tables, kernel_tables = [], []

    def building(n):
        tables.append(_sine_table(n))
        return tables[-1]

    def fast(n, table, alpha):
        kernel_tables.append(table)
        return _g_fast(n, table, alpha)

    def exact(n, table, alpha):
        kernel_tables.append(table)
        return _g(n, table, alpha)

    monkeypatch.setattr("cocircular.scanner._sine_table", building)
    monkeypatch.setattr("cocircular.scanner._g_fast", fast)
    monkeypatch.setattr("cocircular.scanner._g", exact)
    _alpha_star(500, 1e-12)
    assert len(tables) == 1 and 1 <= len(kernel_tables) <= 10
    assert all(table is tables[0] for table in kernel_tables)


def test_overflowing_filter_falls_back_without_warnings(monkeypatch):
    # a threshold nothing reaches makes the bracket climb to alpha = 128,
    # where np.power and _g overflow at n = 1000
    monkeypatch.setattr("cocircular.scanner._ALPHA_CAP", 1024.0)
    monkeypatch.setattr("cocircular.scanner.condition_threshold", lambda a: 1e300)
    table = _sine_table(1000)
    with np.errstate(over="ignore"):
        assert math.isfinite(_g_fast(1000, table, 64.0))
        assert _g_fast(1000, table, 128.0) == math.inf
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedExponent,
                           match=r"^g\(n, alpha\) overflows at n = 1000, alpha = 128\.0$"):
            alpha_star(1000)
