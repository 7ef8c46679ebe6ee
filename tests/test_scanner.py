import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from cocircular.scanner import _alpha_star, _g, _sine_table


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


def test_bounds_leave_few_steps_to_the_exact_kernel(g_calls):
    # bounds on g settle all but a few steps, below and above the 50
    # distinct terms (n = 101) where a second kernel once took over: at
    # most 5 steps at each n run the exact kernel _g, and the step that
    # ends the bisection always runs it
    for n in (99, 500):
        del g_calls[:]
        root = alpha_star(n)
        assert 1 <= len(g_calls) <= 5 and g_calls[-1][0] == root


def test_alpha_star_builds_one_sine_table(monkeypatch, g_calls):
    # every _g call of a bisection takes the one sine table it built
    tables = []

    def building(n):
        tables.append(_sine_table(n))
        return tables[-1]

    monkeypatch.setattr("cocircular.scanner._sine_table", building)
    _alpha_star(500, 1e-12)
    assert len(tables) == 1 and 1 <= len(g_calls) <= 10
    assert all(table is tables[0] for _, table in g_calls)


def test_overflowing_bracket_raises_without_warnings(monkeypatch):
    # a threshold nothing reaches makes the bracket climb to alpha = 128,
    # where _g overflows at n = 1000; no bound settles a step that near
    # overflow, so _g runs there and raises the typed error
    monkeypatch.setattr("cocircular.scanner._ALPHA_CAP", 1024.0)
    monkeypatch.setattr("cocircular.scanner.condition_threshold", lambda a: 1e300)
    table = _sine_table(1000)
    with np.errstate(over="ignore"):
        assert math.isfinite(_g(1000, table, 64.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedExponent,
                           match=r"^g\(n, alpha\) overflows at n = 1000, alpha = 128\.0$"):
            alpha_star(1000)
