"""Region scan for the equal-mass uniqueness condition.

The regular n-gon is the unique centered co-circular central
configuration (equal masses, up to relabeling) whenever

    g(n, alpha) = (1/n) sum_{j=1}^{n-1} csc(j pi / n)**alpha <= 1 + alpha/4.

g is the normalized potential of the unit-mass n-gon and increases in
both n and alpha, so for each n there is a critical exponent where the
condition stops holding.

The sines sin(j pi / n) depend on n alone. ``g_value`` and
``alpha_star`` build them once per n as a table (``_sine_table``, one
vectorized ``np.sin`` over the angles j pi / n, which are formed with the
same multiply and divide as the scalar expression) and take one alpha at
a time from it (``_g``, over the table's floats), the latter for its
whole bracket and bisection, whose filter below reads the table itself.
``_grid`` evaluates the whole (n, alpha) grid in blocks of consecutive n
(``_g_block``): one ``np.sin`` builds the sine tables of a block side by
side, padded below to the longest; then, per alpha, one
``np.float_power`` takes the terms of every n of the block and one
``np.add.reduce`` down the tables sums them, with no per-n call and no
scalar path for small rows.
``_grid`` returns the grid as plain rows of g values; ``scan_region``
wraps them in ``RegionCell``s, and the CLI's ``scan`` and
``scripts/region_map.py`` write them out directly, from one evaluation.

Both kernels take every term from one libm pow, ``_g`` through Python
``**`` and ``_g_block`` through ``np.float_power``, whose float64 loop
calls libm pow per element (``np.power`` has a SIMD loop, SVML on
AVX-512 builds, that rounds about 5% of the terms differently), and both
add the terms in table order: a reduce along the slow axis of a block of
two or more ns adds row after row, and the padding adds +0.0, which is
exact. A block of one n would be summed pairwise, so it is accumulated
instead. So a g has the same bits from either kernel, and the printed
scan does not depend on which one ran.
Inputs are checked at the entry points, never inside the kernels.

A bisection step of ``alpha_star`` needs only the sign of
psi = g - (1 + alpha/4) and whether |psi| <= tol. From
``_FILTER_MIN_TERMS`` distinct terms on (where the vectorized pass
starts to pay for its numpy call overhead), each step first takes g from
``_g_fast``, one ``np.power`` over the table and one pairwise sum, and
``_g_bound`` bounds how far the psi from it can lie from the psi of
``_g``. Where the fast psi clears tol by more than that bound, the exact
psi has the same sign and misses tol too; elsewhere (the final step,
steps near tol, overflow) the step runs ``_g``. So the roots keep every
bit, and one or two of a call's 30 to 40 steps run the scalar kernel.
"""

from __future__ import annotations

import contextlib
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
# below this many distinct terms one scalar pass costs no more than the
# vectorized one plus its numpy call overhead (measured)
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


def _g(n: int, sines: list[float], alpha: float) -> float:
    """g(n, alpha) from the sine table of n as floats; n and alpha are valid.

    One Python ``**`` (libm pow) per term; the terms are added left to
    right and the pair sum is doubled once at the end: doubling is exact,
    so this equals doubling every term. The loop beats a numpy call for
    the one alpha at a time of ``g_value`` and ``alpha_star``.
    """
    a_int = int(alpha) if alpha.is_integer() and alpha <= 4 else 0
    total = 0.0
    try:
        if a_int:
            for s in sines:
                total += (1.0 / s) ** a_int
        else:
            e = -alpha
            for s in sines:
                total += s ** e
    except OverflowError:
        total = math.inf
    total *= 2.0
    if total == math.inf:
        raise UnsupportedExponent(f"g(n, alpha) overflows at n = {n}, alpha = {alpha}")
    if n % 2 == 0:
        total += 1.0
    return total / n


def _sine_block(ns: list[int]) -> np.ndarray:
    """The sine tables of ascending ns side by side, padded below with +inf.

    Column c holds sin(j pi / ns[c]) for j = 1..(ns[c] - 1)//2, from the
    multiply, divide and ``np.sin`` of ``_sine_table``, so that table bit
    for bit, then +inf down to the length of the last table. A padding
    entry makes a term inf**-alpha = +0.0, and (1/inf)**alpha = +0.0 in
    the integer form, with no floating-point exception. ``g_value`` and
    ``alpha_star`` keep ``_sine_table``: a block of one n costs about
    10 us more, which doubles ``g_value`` at small n.
    """
    js = np.arange(1, (ns[-1] - 1) // 2 + 1)[:, None]
    real = js <= np.array([(n - 1) // 2 for n in ns])
    return np.sin(js * math.pi / np.array(ns), out=np.full(real.shape, math.inf), where=real)


def _g_block(ns: list[int], alphas: list[float]) -> list[list[float]]:
    """Rows of g(n, alpha) for ascending ns, each g equal to ``_g``'s.

    Each alpha takes the terms of every n from one ``np.float_power`` over
    the padded sine block, in ``_g``'s (1/s)**alpha form for an integer
    alpha in 1..4, and ``np.add.reduce`` down the tables adds each
    column's terms in table order, as ``_g`` does. A block of one n has
    one column, which the reduce would sum pairwise, so it is accumulated
    instead. Call it with numpy overflow warnings off.
    """
    sines = _sine_block(ns)
    inverse = 1.0 / sines
    sums = np.empty((len(alphas), len(ns)))
    for total, a in zip(sums, alphas):
        if a <= 4.0 and a.is_integer():
            terms = np.float_power(inverse, a)
        else:
            terms = np.float_power(sines, -a)
        if len(ns) > 1:
            total[:] = np.add.reduce(terms, axis=0)
        else:  # a lone column is contiguous, and reduce sums it pairwise
            total[:] = np.add.accumulate(terms, axis=0)[-1]
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
    n = _arity(n)
    return _g(n, _sine_table(n).tolist(), _check_alpha(alpha))


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

    psi_exact is ``_g(n, sines, alpha) - threshold`` and psi_fast is
    g - threshold with g from ``_g_fast`` over the same k sines; the
    threshold is one float shared by both. The bound is meant for reuse
    wherever a fast g has to decide what the exact one would. With
    u = 2**-53 and S the exact sum of s**-alpha over the table:

    - ``_g``'s terms come from libm pow (within 1 ulp, so 2u relative), or
      for alpha in 1..4 as (1/s)**alpha, within (1 + u)**4 (1 + 2u) - 1 < 7u;
      ``np.power`` is within 4 ulp (8u; SVML on AVX-512, libm elsewhere);
    - k positive terms summed in any order, the sequential sum of ``_g`` and
      numpy's pairwise one alike, lie within (k - 1) u of their total;
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
    sines = table.tolist()
    k = len(sines)
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
        g = _g(n, sines, a)
        return g - threshold

    # np.power may overflow; such a step falls back to _g, which raises
    quiet = np.errstate(over="ignore") if filtered else contextlib.nullcontext()
    with quiet:
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
