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
psi = g - threshold and whether |psi| <= tol, and most steps get both
from bounds on g, with no kernel. g(n, alpha) is a sum of exponentials
exp(alpha ln csc), so convex in alpha. ``_g_closed_form`` bounds it by
its tangent at alpha = 0 below and by Taylor's remainder above. Each
alpha decided leaves a point with bounds on the true g: the closed
form's, or ``_g``'s value widened by ``_g_error``, the a-priori bound on
``_g``. One rule, ``_line``, draws the chord above g between the nearest
points on either side and the secant below it beyond the two nearest on
one side. A step is settled where such a bound, widened by ``_g_error``
at the step, clears the threshold by more than tol, as ``_g``'s psi
would; where the upper bound times 2n nears overflow none settles it, so
``_g`` raises there. Every other step runs ``_g``, so the roots keep
every bit. At the default tol a call at n = 3..1000 runs ``_g`` 2 to 12
times, 4.2 on average, where a kernel per step ran it 30 to 43 times.

The first-order expansion of g gives alpha_star(n) ~ 1 / ((n - 1) ln 2
- ln n - n/4), so n alpha_star(n) tends to 1 / (ln 2 - 1/4) =
2.2565866...: it reads 2.288, 2.2609, 2.25713 and 2.256653 at n = 10**3,
10**4, 10**5 and 10**6, approaching the limit from above.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceFailure, DomainError, NoBracket, RegionNotClosed,
                     UnsupportedExponent)
from .geometry import _arity, _tolerance
from .potential import _check_alpha

_ALPHA_SEED = 1.0 / 64.0
_ALPHA_CAP = 64.0
_U = 2.0 ** -53  # unit roundoff of a double
_LN2 = math.log(2.0)
# (1/pi) int_0^pi ln(sin x)**2 dx = pi**2/12 + ln(2)**2 = 1.3029200...,
# rounded up with room for the rounding of the term it scales
_LOG_SINE_SQUARE = 1.3030
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
    try:
        return np.sin(np.arange(1, (n - 1) // 2 + 1) * math.pi / n)
    except MemoryError:
        raise DomainError(f"no memory holds the sine table of g at n = {n}") from None


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


def _g_error(k: int, alpha: float, g: float) -> float:
    """A-priori bound on |``_g`` - g| at alpha over a table of k sines.

    g is the true g(n, alpha), or a computed one: the bound doubles its
    first-order terms, which covers the difference. With u = 2**-53,
    ``_g``'s value carries:

    - the table: j pi / n comes from ``math.pi`` (within 0.36u of pi), one
      multiply and one divide, so within 2.4u relative of the angle x
      (j < 2**53, which every table that fits in memory has); sin moves
      that by at most x cot x <= 1 times as much on (0, pi/2], and
      ``np.sin`` adds at most 4 ulp (8u), so each sine is within 11u;
    - each term s**-alpha then moves by alpha times that, 11 alpha u, and
      its libm pow through ``np.float_power`` adds at most 7u: within
      1 ulp (2u), or for alpha in 1..4, where it is (1/s)**alpha, within
      (1 + u)**4 (1 + 2u) - 1 < 7u;
    - k positive terms summed left to right lie within (k - 1) u of their
      total; doubling is exact, and adding the middle term and dividing
      by n cost u each.

    That totals (k + 8 + 11 alpha) u g to first order. The bound charges
    (k + 13 + 11 alpha) u g and doubles it, which covers the second-order
    terms and the roundings of the bounds and tests built from it.
    """
    return 2.0 * _U * (k + 13 + 11.0 * alpha) * g


def _g_closed_form(n: int, alpha: float) -> tuple[float, float]:
    """Bounds (below, above) on the true g(n, alpha), each O(1) to evaluate.

    g(alpha) = (1/n) sum_{j=1}^{n-1} exp(alpha L_j), L_j = ln csc(j pi / n)
    >= 0, is a sum of exponentials, so convex in alpha, with g(0) =
    (n - 1)/n and, since prod_j sin(j pi / n) = n / 2**(n-1),

        g'(0) = (1/n) sum_j L_j = ((n - 1) ln 2 - ln n) / n.

    - below: a convex g lies above its tangent at 0,
      g >= (n - 1)/n + alpha g'(0);
    - above: Taylor's remainder gives g = tangent + alpha**2 g''(xi) / 2
      for some xi in (0, alpha), and g''(xi) = (1/n) sum_j L_j**2
      csc(j pi / n)**xi <= (n/2)**alpha (1/n) sum_j L_j**2, because
      sin(pi/n) >= 2/n for n >= 3. ln**2 sin is convex on (0, pi), so each
      L_j**2 pi/n is at most its integral over [(j - 1/2) pi/n,
      (j + 1/2) pi/n], and (1/n) sum_j L_j**2 <= (1/pi) int_0^pi ln**2 sin
      = pi**2/12 + ln**2 2 = 1.30292..., taken here as 1.3030.

    The tangent, evaluated in doubles, is within 10u (1 + alpha) of its
    exact value (g(0) < 1 and (n - 1) ln 2 + ln n < 1.1 n); below
    subtracts 16u (1 + alpha) and above adds as much. above is inf where
    (n/2)**alpha would near overflow.
    """
    slack = 16.0 * _U * (1.0 + alpha)
    tangent = (n - 1) / n + alpha * (((n - 1) * _LN2 - math.log(n)) / n)
    exponent = alpha * math.log(0.5 * n)
    if exponent > 700.0:
        return tangent - slack, math.inf
    return (tangent - slack,
            tangent + slack + 0.5 * alpha * alpha * math.exp(exponent) * _LOG_SINE_SQUARE)


def _line(near: tuple, far: tuple, reach: float, side: float, rho: float) -> tuple:
    """(p, value, slope): the line through (p, y_p) and (q, above_q), on one side of g.

    near = (p, below_p, above_p) and far = (q, _, above_q) bound the true g.
    Side +1.0 is the chord, with y_p = above_p and p, q the nearest points
    on either side (reach q - p): a convex g lies below it on [p, q].
    Side -1.0 is the secant, with y_p = below_p and p, q the two nearest on
    one side: beyond p, away from q, a convex g lies above it. Times
    1 + side rho it lies on that side of ``_g`` too, where ``_g_error`` <=
    rho g. For m within reach of p, value + (m - p) slope rounds within
    8u (|y_p| + reach |above_q - y_p| / |q - p|), and value carries twice
    that. A line that is not finite decides no step: (0, side inf, 0).
    """
    (p, below_p, above_p), (q, _, above_q) = near, far
    y_p = above_p if side > 0.0 else below_p
    rise = above_q - y_p
    scale = 1.0 + side * rho
    value = (y_p + side * 16.0 * _U * (abs(y_p) + reach / abs(q - p) * abs(rise))) * scale
    slope = rise / (q - p) * scale
    if math.isfinite(value) and math.isfinite(slope):
        return p, value, slope
    return 0.0, side * math.inf, 0.0


def _alpha_star(n: int, tol: float) -> tuple[float, float]:
    """``alpha_star``'s root and the g that ``_g`` gave at it."""
    n, tol = _arity(n), _tolerance(tol, "tol")

    table = _sine_table(n)
    k = len(table)
    headroom = 2.0 * n  # a kernel g below inf / headroom cannot overflow
    g = math.nan
    # points (alpha, below, above) that bound the true g at the alphas
    # decided so far, at or below lo and at or above hi, the nearest last;
    # the first is g(0) = (n - 1)/n
    g0 = (n - 1) / n
    left = [(0.0, g0 * (1.0 - 4.0 * _U), g0 * (1.0 + 4.0 * _U))]
    right = []

    def psi(a: float, threshold: float) -> tuple[float, tuple]:
        # _g's psi at a, and a point bounding g there; _g's value stays in g
        nonlocal g
        g = _g(n, table, a)
        err = _g_error(k, a, g)
        return g - threshold, (a, g - err, g + err)

    def nonnegative(a: float) -> bool:
        # whether psi(a) >= 0, from the closed form where it decides
        threshold = condition_threshold(a)
        below, above = _g_closed_form(n, a)
        rho = _g_error(k, a, 1.0)
        if above * (1.0 + rho) * headroom < math.inf:
            if above * (1.0 + rho) - threshold < 0.0:
                left.append((a, below, above))
                return False
            if below * (1.0 - rho) - threshold >= 0.0:
                right.append((a, below, above))
                return True
        value, point = psi(a, threshold)
        goes_right = value >= 0.0
        (right if goes_right else left).append(point)
        return goes_right

    def lines() -> tuple:
        # the chord above and the secants below from either side of (lo, hi),
        # or lines that decide no step where _g could overflow
        near_left, near_right = left[-1], right[-1]
        rho = _g_error(k, near_right[0], 1.0)
        no_line_below = (0.0, -math.inf, 0.0)
        if not max(near_left[2], near_right[2]) * (1.0 + rho) * headroom < math.inf:
            return (0.0, math.inf, 0.0), no_line_below, no_line_below
        width = near_right[0] - near_left[0]
        return (_line(near_left, near_right, width, 1.0, rho),
                _line(near_left, left[-2], width, -1.0, rho),
                _line(near_right, right[-2], width, -1.0, rho) if len(right) > 1
                else no_line_below)

    # a power may overflow to inf, which _g turns into the typed error
    with np.errstate(over="ignore"):
        lo = _ALPHA_SEED
        while nonnegative(lo):
            lo *= 0.5
            if lo < 1e-12:
                raise NoBracket(f"condition already fails at alpha -> 0 for n = {n}")
        hi = 2.0 * lo
        # after a halving, hi is the last alpha tried, and its psi was >= 0
        if lo == _ALPHA_SEED:
            while not nonnegative(hi):
                lo, hi = hi, 2.0 * hi
                if hi > _ALPHA_CAP:
                    raise NoBracket(
                        f"condition holds for every alpha up to {_ALPHA_CAP} at n = {n}"
                    )
        # [lo, hi] is one binade: 52 halvings leave adjacent doubles
        (ta, tv, ts), (la, lv, ls), (ra, rv, rs) = lines()
        lefts = 0  # evaluated steps that moved lo since the last that moved hi
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            threshold = condition_threshold(mid)
            if tv + (mid - ta) * ts - threshold < -tol:
                lo = mid
            elif lefts < 2 and (lv + (mid - la) * ls - threshold > tol
                                or rv + (mid - ra) * rs - threshold > tol):
                hi = mid
            else:
                value, point = psi(mid, threshold)
                if abs(value) <= tol:
                    return mid, g
                if value < 0.0:
                    lo = mid
                    left.append(point)
                    lefts += 1
                else:
                    hi = mid
                    right.append(point)
                    lefts = 0
                (ta, tv, ts), (la, lv, ls), (ra, rv, rs) = lines()
            mid = 0.5 * (lo + hi)
    raise ConvergenceFailure(f"bisection residual above {tol} with no double "
                             f"between {lo!r} and {hi!r}")


def alpha_star(n: int, tol: float = 1e-12) -> float:
    """Critical exponent where g(n, alpha) meets 1 + alpha/4.

    Brackets by halving or doubling from alpha = 1/64, then bisects until
    the residual |g - 1 - alpha/4| drops to tol, or raises
    ConvergenceFailure once no double lies between lo and hi (52 steps).
    Every step reuses one sine table; the alphas it tries are positive and
    finite by construction, so they skip the entry checks. Each step's
    verdict is the one the exact kernel ``_g`` would give, but most steps
    take it from bounds on g (the module docstring): in the bracket the
    closed form, in the bisection the lines through the points already
    decided. A step runs ``_g`` only where no bound clears
    tol + ``_g_error``, with one exception: after two evaluated steps that
    moved lo and none that moved hi, the next step a bound would move hi
    runs ``_g`` too. The chord above g is only as tight as its ends are
    near, and a root approached from below would otherwise leave its
    right end behind: at the default tol the rule takes n = 22 from 21
    kernel calls to 9, the worst n up to 1200 from 21 to 12, and the sum
    over n = 3..1200 from 5,044 to 4,963.
    """
    return _alpha_star(n, tol)[0]
