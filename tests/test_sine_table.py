"""The sine-table kernel against the reference scanner, bit for bit.

The package builds the sines sin(j pi / n) once per n, with one ``np.sin``
over the angles, and evaluates g for every alpha from that table.
``reference_scanner`` recomputes the sines on every call and doubles every
term; the additions run in the same order and doubling is exact, so g,
every scan cell and every critical exponent must match exactly, and
overflow must raise at the same (n, alpha). ``alpha_star`` decides most
steps from a vectorized g within a rounding bound; its roots and its
errors must still be the reference's. The kernels take their terms from
``np.float_power`` over one sine table or a block of them, which must
round every power as Python ``**`` does, and sum them in table order
whatever the block's shape.
"""

import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import reference_scanner as ref
from cocircular import CocircularError, UnsupportedExponent, alpha_star, g_value, scan_region
from cocircular import scanner
from cocircular.cli import main
from cocircular.scanner import _BLOCK, _g_block, _g_fast, _grid, _sine_block, _sine_table

NS = st.integers(3, 2000)
ALPHAS = st.one_of(
    st.sampled_from([1.0, 2.0, 3.0, 4.0]),
    st.floats(0.01, 8.0, exclude_min=True, exclude_max=True),
)


def test_sine_table_matches_scalar_sines():
    # one np.sin over j * pi / n against math.sin term by term; the sines
    # are positive and finite, so == on the floats is equality of the bits
    for n in range(3, 4001):
        want = [math.sin(j * math.pi / n) for j in range(1, (n - 1) // 2 + 1)]
        assert _sine_table(n).tolist() == want, n


# exponents of both pow forms of _g: s**-alpha, and (1/s)**alpha for
# integer alpha in 1..4; up to csc(pi/4000)**64, far below overflow
POW_ALPHAS = [1e-9, 0.1, 0.5, 1.5, math.pi, 5.0, 7.25, 16.5, 64.0]
INTEGER_ALPHAS = [1, 2, 3, 4]


def test_float_power_matches_scalar_pow():
    # the libm pow that Python ** calls, element by element; each n takes
    # one exponent of each form in turn, so every exponent meets sines of
    # n from 3 to 4000
    for n in range(3, 4001):
        table = _sine_table(n)
        alpha = POW_ALPHAS[n % len(POW_ALPHAS)]
        want = [s ** -alpha for s in table.tolist()]
        assert np.float_power(table, -alpha).tolist() == want, (n, alpha)
        a = INTEGER_ALPHAS[n % len(INTEGER_ALPHAS)]
        inverse = 1.0 / table
        want = [s ** a for s in inverse.tolist()]
        assert np.float_power(inverse, float(a)).tolist() == want, (n, a)


def _pow_or_inf(s, e):
    try:
        return s ** e
    except OverflowError:
        return math.inf


@pytest.mark.parametrize("n", [999, 1000, 4000])
def test_float_power_overflows_where_scalar_pow_raises(n):
    # csc(pi/n)**alpha crosses the largest double at alpha = 123 (n = 1000)
    # and 99 (n = 4000); the sweep runs through both and on to 200
    table = _sine_table(n)[:8]
    sines = table.tolist()
    overflowed = 0
    for i in range(400):
        alpha = 90.0 + 0.275 * i
        with np.errstate(over="ignore"):
            got = np.float_power(table, -alpha).tolist()
        want = [_pow_or_inf(s, -alpha) for s in sines]
        assert got == want, alpha
        overflowed += math.inf in want
    assert 0 < overflowed < 400


def test_sine_block_matches_sine_tables():
    # each column of a block is the table of its n, then +inf padding
    for ns in ([3], [4, 5], list(range(3, 400)), [3, 1000], [999, 1000, 4000]):
        sines = _sine_block(ns)
        assert sines.shape == ((ns[-1] - 1) // 2, len(ns))
        for column, n in enumerate(ns):
            k = (n - 1) // 2
            assert sines[:k, column].tolist() == _sine_table(n).tolist(), n
            assert sines[k:, column].tolist() == [math.inf] * (len(sines) - k), n


# (n, alphas) rows that the grid rarely meets: one term (n = 3, 4), one
# cell, one alpha at large n, integer alphas on both sides of 4, repeats
ROWS = [
    (3, [2.0]), (4, [0.7]), (5, [1.5]),
    (3, [0.5, 1.0, 2.5, 4.0, 9.0]), (4, [1e-9, 3.0, 3.5, 64.0]),
    (10**4, [1.5]), (10**4, [2.0]), (10**5 + 1, [0.75]),
    (97, [0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0, 8.0]),
    (300, [2.0, 2.0, 0.5, 0.5, 1.0, 2.0]),
]


@pytest.mark.parametrize("gap, block", [
    (None, None),  # n alone in its block, as _grid passes a lone n: accumulated
    (0, None),  # n twice: two columns, summed by reduce
    (0, 1),  # _BLOCK sets only how _grid groups the ns: rows must not move
    (0, 400),
])
@pytest.mark.parametrize("n, alphas", ROWS)
def test_grid_row_matches_scalar_kernel(monkeypatch, gap, block, n, alphas):
    # the block kernel over n alone (gap None) or over n - gap and n
    if block is not None:
        monkeypatch.setattr("cocircular.scanner._BLOCK", block)
    ns = [n] if gap is None else [n - gap, n]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            rows = _g_block(ns, alphas)
        cells = scan_region([n], alphas)
    assert len(rows) == len(ns)
    for m, row in zip(ns, rows):
        assert row == [ref.g_value(m, a) for a in alphas]
    assert [c.g_value for c in cells] == [ref.g_value(n, a) for a in sorted(set(alphas))]


# (ns, alphas) grids for every shape that changes how numpy sums a block:
# one n (a lone column, accumulated) by one alpha or by many, many ns by
# one alpha, and odd and even n with the integer alphas of (1/s)**alpha
# among the others
GRIDS = [
    ([10**5 + 1], [0.75]), ([7], [1.5]), ([4], [2.0]),
    ([97], [0.5, 1.0, 1.5, 2.0, 3.0, 3.5, 4.0, 5.0, 8.0]), ([10**4], [0.3, 1.0, 2.5]),
    (range(3, 200), [0.75]), (range(3, 60), [2.0]), ([999, 1000, 4000], [1.1]),
    (range(3, 41), [0.5, 1.0, 1.5, 2.0, 2.5, 3.0, 3.5, 4.0, 4.5]),
    (range(280, 301), [1.0, 2.0, 3.0, 4.0]),
]


@pytest.mark.parametrize("block", [
    None,  # as shipped
    1,  # every n a block of its own, one alpha at a time
    64,  # blocks split mid-range
    1500,
])
@pytest.mark.parametrize("ns, alphas", GRIDS)
def test_grid_blocks_match_scalar_kernel(monkeypatch, block, ns, alphas):
    if block is not None:
        monkeypatch.setattr("cocircular.scanner._BLOCK", block)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got_ns, got_alphas, _, rows = _grid(ns, alphas)
    assert got_ns == list(ns) and got_alphas == alphas
    for n, row in zip(ns, rows):
        assert row == [ref.g_value(n, a) for a in alphas], n


def test_grid_makes_no_per_n_call(monkeypatch):
    # the benchmark's grid: a few blocks, and no per-n table or _g call
    calls = {"_sine_table": 0, "_g": 0, "_g_block": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    for name in calls:
        monkeypatch.setattr(scanner, name, counted(name, getattr(scanner, name)))
    alphas = [0.1 + 0.25 * i for i in range(12)]
    ns, _, _, rows = _grid(range(3, 301), alphas)
    assert len(rows) == len(ns) == 298
    assert calls["_sine_table"] == calls["_g"] == 0
    assert 1 <= calls["_g_block"] <= 8


def test_grid_memory_stays_within_the_block():
    # n up to 3000 at four alphas makes 9 million terms (72 MB) in all; the
    # blocks hold at most _BLOCK of them (1 MiB) at a time
    ns, alphas = range(3, 3001), [0.5, 1.0, 1.5, 2.0]
    _grid(ns, alphas)
    tracemalloc.start()
    try:
        _grid(ns, alphas)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * _BLOCK


def test_grid_without_alphas_evaluates_nothing():
    # with no alpha nothing bounds a block by its terms; one block over
    # n <= 3000 would pad 4.5 million sines (36 MB)
    tracemalloc.start()
    try:
        assert scan_region(range(3, 3001), []) == []
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * _BLOCK
    assert _grid(range(3, 10**5 + 1), [])[3] == [[]] * (10**5 - 2)


def _first_overflow(ns, alphas):
    for n in ns:
        for alpha in sorted(set(alphas)):
            try:
                ref.g_value(n, alpha)
            except UnsupportedExponent as exc:
                return str(exc)
    return None


@pytest.mark.parametrize("n_min, n_max, alphas", [
    (999, 1000, [1.0, 130.0]),
    (999, 1000, [130.0, 1.0, 200.0]),
    (990, 1000, [1.0, 122.0, 122.9, 123.0, 123.5]),
    (4000, 10**4, [2.0, 98.0, 100.0]),
])
def test_scan_overflow_names_the_reference_cell(capsys, n_min, n_max, alphas):
    # the first overflowing (n, alpha) in (n, alpha) order, with no numpy
    # warning ahead of the error
    want = _first_overflow(range(n_min, n_max + 1), alphas)
    assert want is not None
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(UnsupportedExponent) as info:
            scan_region(range(n_min, n_max + 1), alphas)
        assert str(info.value) == want
        argv = ["scan", "--n-min", str(n_min), "--n-max", str(n_max),
                "--alpha", *map(repr, alphas)]
        assert main(argv) == 2
    assert capsys.readouterr() == ("", f"error: {want}\n")


@given(NS, ALPHAS)
@settings(max_examples=300, deadline=None)
def test_g_value_matches_reference(n, alpha):
    assert g_value(n, alpha) == ref.g_value(n, alpha)


@pytest.mark.parametrize("alpha", [1.0, 0.75])
@pytest.mark.parametrize("n", [10**5 + 1, 10**6])
def test_g_value_matches_reference_at_large_n(n, alpha):
    # half a million terms in either pow form, added in table order
    assert g_value(n, alpha) == ref.g_value(n, alpha)


def test_alpha_star_memory_per_n():
    # the table, one power of it and its running sum: 4 bytes per n each;
    # a list of the table's floats alone would add 16
    n = 10**6
    tracemalloc.start()
    try:
        alpha_star(n)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n


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
        assert _outcome(lambda n, a: scan_region([n], [a])[0].g_value, n, alpha) == got
        outcomes.append(got == "overflow")
    assert not outcomes[0] and outcomes[-1]


@pytest.mark.parametrize("n", [999, 1000])
def test_fast_g_keeps_headroom_below_overflow(n):
    # a finite fast g vouches for a finite _g, so the filter never decides a
    # step that _g would refuse; within a factor 2 of overflow it gives up
    table = _sine_table(n)
    gave_up = 0
    for i in range(600):
        alpha = 122.0 + 0.005 * i
        with np.errstate(over="ignore"):
            fast = _g_fast(n, table, alpha)
        exact = _outcome(ref.g_value, n, alpha)
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
