"""The sine-table kernel against the reference scanner, bit for bit.

The package builds the sines sin(j pi / n) once per n, with one ``np.sin``
over the angles, and evaluates g for every alpha from that table.
``reference_scanner`` recomputes the sines on every call and doubles every
term; the additions run in the same order and doubling is exact, so g,
every scan cell and every critical exponent must match exactly, and
overflow must raise at the same (n, alpha). ``alpha_star`` decides most
steps from a vectorized g within a rounding bound; its roots and its
errors must still be the reference's.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scanner as ref
from cocircular import CocircularError, UnsupportedExponent, alpha_star, g_value, scan_region
from cocircular.scanner import _g, _g_fast, _sines

NS = st.integers(3, 2000)
ALPHAS = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 4.0]),
    st.floats(0.01, 8.0, exclude_min=True, exclude_max=True),
)


def test_sine_table_matches_scalar_sines():
    # one np.sin over j * pi / n against math.sin term by term; the sines
    # are positive and finite, so == on the floats is equality of the bits
    for n in range(3, 4001):
        want = tuple(math.sin(j * math.pi / n) for j in range(1, (n - 1) // 2 + 1))
        assert _sines(n) == want, n


@given(NS, ALPHAS)
@settings(max_examples=300, deadline=None)
def test_g_value_matches_reference(n, alpha):
    assert g_value(n, alpha) == ref.g_value(n, alpha)


@given(st.lists(NS, min_size=1, max_size=4), st.lists(ALPHAS, min_size=1, max_size=5))
@settings(max_examples=60, deadline=None)
def test_scan_region_cells_match_reference(ns, alphas):
    for c in scan_region(ns, alphas):
        assert c.g_value == ref.g_value(c.n, c.alpha)
        assert c.holds == (c.g_value <= c.threshold)


@given(NS)
@settings(max_examples=40, deadline=None)
def test_alpha_star_matches_reference(n):
    assert alpha_star(n) == ref.alpha_star(n)


def _outcome(g, n, alpha):
    try:
        return g(n, alpha)
    except UnsupportedExponent:
        return "overflow"


@pytest.mark.parametrize("n", [999, 1000])
def test_overflow_at_the_same_exponent(n):
    # csc(pi/n)**alpha passes the largest double near alpha = 123 here;
    # the 0.005 steps cross the points where one term, twice a term and
    # the pair sum overflow
    outcomes = []
    for i in range(600):
        alpha = 122.0 + 0.005 * i
        got = _outcome(g_value, n, alpha)
        assert got == _outcome(ref.g_value, n, alpha), alpha
        outcomes.append(got == "overflow")
    assert not outcomes[0] and outcomes[-1]


@pytest.mark.parametrize("n", [999, 1000])
def test_fast_g_keeps_headroom_below_overflow(n):
    # a finite fast g vouches for a finite _g, so the filter never decides a
    # step that _g would refuse; within a factor 2 of overflow it gives up
    sines = _sines(n)
    table = np.array(sines)
    gave_up = 0
    for i in range(600):
        alpha = 122.0 + 0.005 * i
        with np.errstate(over="ignore"):
            fast = _g_fast(n, table, alpha)
        exact = _outcome(lambda n, a: _g(n, sines, a), n, alpha)
        if math.isfinite(fast):
            assert exact != "overflow", alpha
        elif exact != "overflow":
            gave_up += 1
    assert gave_up > 0


def test_overflow_raises_in_every_entry_point():
    for alpha in (130.0, 200.0, 1000.0):
        with pytest.raises(UnsupportedExponent):
            ref.g_value(1000, alpha)
        with pytest.raises(UnsupportedExponent):
            g_value(1000, alpha)
        with pytest.raises(UnsupportedExponent):
            scan_region([999, 1000], [1.0, alpha])
    assert math.isfinite(g_value(1000, 120.0))


def _star_outcome(star, n, tol):
    try:
        return star(n, tol)
    except CocircularError as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("n, tol", [
    (6, -1.0), (500, math.nan),  # bad tol
    (11, 0.0), (461, 0.0),  # no midpoint meets a zero tol
    (4000, 1e-15), (10**4, 1e-6),
])
def test_alpha_star_outcome_matches_reference(n, tol):
    assert _star_outcome(alpha_star, n, tol) == _star_outcome(ref.alpha_star, n, tol)


@pytest.mark.parametrize("threshold, cap", [
    (0.0, 64.0),  # fails at every alpha: no bracket below
    (1e300, 64.0),  # holds up to the cap: no bracket above
    (1e300, 1024.0),  # climbs until g overflows
])
@pytest.mark.parametrize("n", [6, 1000])
def test_alpha_star_errors_match_reference(monkeypatch, threshold, cap, n):
    for module in ("cocircular.scanner", "reference_scanner"):
        monkeypatch.setattr(f"{module}.condition_threshold", lambda a: threshold)
        monkeypatch.setattr(f"{module}._ALPHA_CAP", cap)
    got = _star_outcome(alpha_star, n, 1e-12)
    assert isinstance(got, tuple)
    assert got == _star_outcome(ref.alpha_star, n, 1e-12)
