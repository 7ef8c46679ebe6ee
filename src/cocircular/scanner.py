"""Region scan for the equal-mass uniqueness condition.

The regular n-gon is the unique centered co-circular central
configuration (equal masses, up to relabeling) whenever

    g(n, alpha) = (1/n) sum_{j=1}^{n-1} csc(j pi / n)**alpha <= 1 + alpha/4.

g is the normalized potential of the unit-mass n-gon and increases in
both n and alpha, so for each n there is a critical exponent where the
condition stops holding.

The sines sin(j pi / n) depend on n alone. ``_sine_table`` builds them
once per n with one ``np.sin`` over the angles j pi / n, formed with the
multiply and divide of the scalar expression; ``g_value`` takes one
alpha from the table and ``alpha_star`` its whole bracket and bisection,
both through ``_g``. ``_grid`` evaluates the (n, alpha) grid in blocks of
consecutive n (``_g_block``): one ``np.sin`` builds a block's tables side
by side, padded below to the longest, and per alpha one pow takes every
n's terms and one ``np.add.reduce`` down the tables sums them.
``scan_region`` wraps the grid's rows in ``RegionCell``s; the CLI's
``scan`` and ``scripts/region_map.py`` write the rows out directly.

Every term comes from one libm pow (``_terms``), and every sum adds the
terms in table order: ``_g`` accumulates its table, and a reduce along
the slow axis of two or more columns adds row after row, the padding
adding an exact +0.0; a block of one n goes to ``_g``. So a g has the
same bits from either kernel, and the printed scan does not depend on
which one ran. Inputs are checked at the entry points, never inside the
kernels.

A bisection step of ``alpha_star`` needs only the sign of
psi = g - (1 + alpha/4) and whether |psi| <= tol. From
``_FILTER_MIN_TERMS`` distinct terms on, each step first takes g from
``_g_fast``, one ``np.power`` over the table and one pairwise sum, and
``_g_bound`` bounds how far the psi from it can lie from the psi of
``_g``. Where the fast psi clears tol by more than that bound, the exact
psi has the same sign and misses tol too; elsewhere (the final step,
steps near tol, overflow) the step runs ``_g``. So the roots keep every
bit, and one or two of a call's 30 to 40 steps run the exact kernel.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, DomainError, NoBracket, RegionNotClosed,
                     UnsupportedExponent)
from .geometry import _arity
from .potential import _check_alpha

_ALPHA_SEED = 1.0 / 64.0
_ALPHA_CAP = 64.0
_MAX_BISECT = 200
_U = 2.0 ** -53  # unit roundoff of a double
# below this many distinct terms the exact pass (float_power, accumulate)
# costs no more than the filter's np.power, pairwise sum and bound
# (measured: about 2.1 us each at 40 terms, 2.5 against 2.3 at 50)
_FILTER_MIN_TERMS = 50
# padded terms per grid block: about 1 MiB of terms at a time, whatever
# the grid
_BLOCK = 1 << 17


@dataclass(frozen=True)
class RegionCell:
    """One (n, alpha) grid cell of the condition scan."""

    n: int
    alpha: float
    g_value: float
    threshold: float
    holds: bool


def _sine_table(n: int) -> np.ndarray:
    """sin(j pi / n) for j = 1..(n-1)//2, the distinct terms of g at n."""
    return np.sin(np.arange(1, (n - 1) // 2 + 1) * math.pi / n)


def _terms(sines: np.ndarray, alpha: float) -> np.ndarray:
    """csc**alpha of every sine, each from one libm pow.

    ``np.float_power`` calls libm pow per element (``np.power``'s SIMD
    loop, SVML on AVX-512 builds, rounds about 5% of the terms otherwise):
    (1/s)**alpha for an integer alpha in 1..4, else s**-alpha; a +inf sine
    gives +0.0. Call it with numpy overflow warnings off.
    """
    if alpha <= 4.0 and alpha.is_integer():
        return np.float_power(1.0 / sines, alpha)
    return np.float_power(sines, -alpha)


def _g(n: int, table: np.ndarray, alpha: float) -> float:
    """g(n, alpha) from the sine table of n; n and alpha are valid.

    ``np.add.accumulate`` adds the terms left to right (``np.add.reduce``
    would sum the table pairwise); doubling the sum is exact, so it equals
    doubling every term. Call it with numpy overflow warnings off.
    """
    total = 2.0 * float(np.add.accumulate(_terms(table, alpha))[-1])
    if total == math.inf:
        raise UnsupportedExponent(f"g(n, alpha) overflows at n = {n}, alpha = {alpha}")
    if n % 2 == 0:
        total += 1.0
    return total / n


def _sine_block(ns: list[int]) -> np.ndarray:
    """The sine tables of ascending ns side by side, padded below with +inf.

    Column c holds sin(j pi / ns[c]) for j = 1..(ns[c] - 1)//2, from the
    multiply, divide and ``np.sin`` of ``_sine_table``, so that table bit
    for bit, then +inf down to the length of the last table, whose terms
    are +0.0 (``_terms``).
    """
    js = np.arange(1, (ns[-1] - 1) // 2 + 1)[:, None]
    real = js <= np.array([(n - 1) // 2 for n in ns])
    return np.sin(js * math.pi / np.array(ns), out=np.full(real.shape, math.inf), where=real)


def _g_block(ns: list[int], alphas: list[float]) -> list[list[float]]:
    """Rows of g(n, alpha) for ascending ns, each g equal to ``_g``'s.

    Per alpha, one ``_terms`` over the padded sine block and one
    ``np.add.reduce`` down the tables, which adds each column in table
    order; a lone n goes to ``_g``, whose one contiguous column the reduce
    would sum pairwise. Call it with numpy overflow warnings off.
    """
    if len(ns) == 1:
        table = _sine_table(ns[0])
        return [[_g(ns[0], table, a) for a in alphas]]
    sines = _sine_block(ns)
    sums = np.empty((len(alphas), len(ns)))
    for total, a in zip(sums, alphas):
        total[:] = np.add.reduce(_terms(sines, a), axis=0)
    sums = 2.0 * sums.T
    overflow = np.isinf(sums)
    if overflow.any():
        at_n, at_alpha = divmod(int(overflow.argmax()), len(alphas))
        raise UnsupportedExponent(
            f"g(n, alpha) overflows at n = {ns[at_n]}, alpha = {alphas[at_alpha]}")
    n_column = np.array(ns, dtype=float)[:, None]
    sums += 1.0 - n_column % 2.0  # the middle term csc(pi/2) = 1 of even n
    sums /= n_column
    return sums.tolist()


def g_value(n: int, alpha: float) -> float:
    """(1/n) sum_j csc(j pi / n)**alpha, summed in symmetric pairs.

    Terms j and n - j are equal, so the sine table holds only
    j = 1..(n-1)//2 and the pair sum is doubled; even n adds the lone
    middle term csc(pi/2) = 1. Builds the table for this one call; to
    evaluate many alphas at one n, ``scan_region`` and ``alpha_star``
    reuse one table instead.
    """
    n, alpha = _arity(n), _check_alpha(alpha)
    with np.errstate(over="ignore"):  # _g raises on a term or sum of inf
        return _g(n, _sine_table(n), alpha)


def condition_threshold(alpha: float) -> float:
    return 1.0 + alpha / 4.0


def _grid(n_values, alpha_grid):
    """g over the (n, alpha) cross product as (ns, alphas, thresholds, rows).

    ns and alphas come back sorted and without repeats, thresholds[i] is
    1 + alphas[i]/4 and rows[k][i] is g(ns[k], alphas[i]). The ns go to
    ``_g_block`` in runs of consecutive ns whose padded block holds at most
    ``_BLOCK`` terms over all alphas (or one n alone); no alpha, no block.
    Raises RegionNotClosed if some alpha's holding region is not an
    initial segment of ns.
    """
    ns = sorted(set(_arity(n) for n in n_values))
    alphas = sorted(set(_check_alpha(a) for a in alpha_grid))
    thresholds = [condition_threshold(a) for a in alphas]
    if not alphas:
        return ns, alphas, thresholds, [[] for _ in ns]
    rows = []
    # float_power overflows to inf, which _g_block turns into the typed error
    with np.errstate(over="ignore"):
        start = 0
        for stop in range(1, len(ns) + 1):
            # close the block where the next n would pad it past _BLOCK terms
            if stop == len(ns) or (ns[stop] - 1) // 2 * (stop + 1 - start) * len(alphas) > _BLOCK:
                rows += _g_block(ns[start:stop], alphas)
                start = stop
    # g grows with n, so per alpha the holds flags run true, then false
    for a, threshold, column in zip(alphas, thresholds, zip(*rows)):
        holds = [g <= threshold for g in column]
        if holds != sorted(holds, reverse=True):
            raise RegionNotClosed(
                f"condition failed to be downward closed in n at alpha = {a}"
            )
    return ns, alphas, thresholds, rows


def scan_region(n_values, alpha_grid) -> list[RegionCell]:
    """Evaluate the condition over the (n, alpha) cross product.

    Cells come back sorted by (n, alpha).
    """
    ns, alphas, thresholds, rows = _grid(n_values, alpha_grid)
    return [RegionCell(n, a, g, t, g <= t)
            for n, row in zip(ns, rows) for a, t, g in zip(alphas, thresholds, row)]


def _g_bound(k: int, g: float, threshold: float) -> float:
    """Bound on |psi_fast - psi_exact| for psi = g - threshold over k terms.

    psi_exact is ``_g(n, table, alpha) - threshold`` and psi_fast is
    g - threshold with g from ``_g_fast`` over the same k sines; the
    threshold is one float shared by both. The bound is meant for reuse
    wherever a fast g has to decide what the exact one would. With
    u = 2**-53 and S the exact sum of s**-alpha over the table:

    - ``_g``'s terms come from libm pow through ``np.float_power`` (within
      1 ulp, so 2u relative), or for alpha in 1..4 as (1/s)**alpha, within
      (1 + u)**4 (1 + 2u) - 1 < 7u; ``np.power`` is within 4 ulp (8u; SVML
      on AVX-512, libm elsewhere);
    - k positive terms summed in any order, the accumulated sum of ``_g``
      and numpy's pairwise one alike, lie within (k - 1) u of their total;
    - so |2 S_fast - 2 S_exact| <= (2k + 13) u 2S; doubling is exact, and
      adding the middle term and dividing by n cost 2u g on each side;
    - subtracting the threshold costs u (g + threshold) on each side.

    That totals (2k + 19) u g + 2u threshold to first order. The bound
    doubles it, which covers the second-order terms, the gap between g and
    2S/n, and the rounding of the bound and of the test against it.
    """
    return 2.0 * _U * ((2 * k + 20) * g + 2.0 * threshold)


def _g_fast(n: int, table: np.ndarray, alpha: float) -> float:
    """g(n, alpha) from one ``np.power`` and one pairwise sum over the table.

    Within ``_g_bound`` of ``_g``'s value but not always equal to it. Comes
    back inf wherever the pair sum lacks a factor 2 of headroom below
    overflow, so that a finite value also means a finite ``_g``. Call it
    with numpy overflow warnings off.
    """
    total = 2.0 * float(np.add.reduce(np.power(table, -alpha)))
    if not 2.0 * total < math.inf:
        return math.inf
    return (total + 1.0 if n % 2 == 0 else total) / n


def _alpha_star(n: int, tol: float) -> tuple[float, float]:
    """``alpha_star``'s root and the g that ``_g`` gave at it."""
    n = _arity(n)
    if not tol >= 0.0:
        raise DomainError(f"tol must be a nonnegative number, got {tol}")

    table = _sine_table(n)
    k = len(table)
    filtered = k >= _FILTER_MIN_TERMS
    g = math.nan

    def psi(a: float) -> float:
        # a fast psi comes back only when it clears tol by more than the
        # bound, so its sign and its miss of tol are those of _g's psi; a
        # psi within tol always comes from _g, which leaves its g in g
        nonlocal g
        threshold = condition_threshold(a)
        if filtered:
            fast = _g_fast(n, table, a)
            value = fast - threshold
            if abs(value) > tol + _g_bound(k, fast, threshold):
                return value
        g = _g(n, table, a)
        return g - threshold

    # a power may overflow to inf; a fast step then falls back to _g,
    # which raises the typed error
    with np.errstate(over="ignore"):
        lo = _ALPHA_SEED
        while psi(lo) >= 0.0:
            lo *= 0.5
            if lo < 1e-12:
                raise NoBracket(f"condition already fails at alpha -> 0 for n = {n}")
        hi = 2.0 * lo
        while psi(hi) < 0.0:
            lo, hi = hi, 2.0 * hi
            if hi > _ALPHA_CAP:
                raise NoBracket(
                    f"condition holds for every alpha up to {_ALPHA_CAP} at n = {n}"
                )
        for _ in range(_MAX_BISECT):
            mid = 0.5 * (lo + hi)
            value = psi(mid)
            if abs(value) <= tol:
                return mid, g
            if value < 0.0:
                lo = mid
            else:
                hi = mid
    raise ConvergenceFailure(
        f"bisection residual above {tol} after {_MAX_BISECT} iterations"
    )


def alpha_star(n: int, tol: float = 1e-12) -> float:
    """Critical exponent where g(n, alpha) meets 1 + alpha/4.

    Brackets by doubling from alpha = 1/64, then bisects until the
    residual |g - 1 - alpha/4| drops below tol. Every step reuses one
    sine table; the alphas it tries are positive and finite by
    construction, so they skip the entry checks. Each step's verdicts are
    those of the exact kernel ``_g``, though from n = 101 on most steps
    take them from ``_g_fast`` within ``_g_bound``.
    """
    return _alpha_star(n, tol)[0]
