"""Region scan for the equal-mass uniqueness condition.

The regular n-gon is the unique centered co-circular central
configuration (equal masses, up to relabeling) whenever

    g(n, alpha) = (1/n) sum_{j=1}^{n-1} csc(j pi / n)**alpha <= 1 + alpha/4.

g is the normalized potential of the unit-mass n-gon and increases in
both n and alpha, so for each n there is a critical exponent where the
condition stops holding.

The sines sin(j pi / n) depend on n alone. Each entry point builds them
once per n as a table (``_sine_table``, one vectorized ``np.sin`` over
the angles j pi / n, which are formed with the same multiply and divide
as the scalar expression) and evaluates g for every alpha from that
table. ``_grid`` takes a whole row of alphas at once (``_g_row``);
``g_value`` and ``alpha_star`` take one alpha at a time (``_g``), the
latter for its whole bracket and bisection. ``_grid`` returns the grid as
plain rows of g values; ``scan_region`` wraps them in ``RegionCell``s,
and the CLI's ``scan`` writes them out directly. Both kernels take every
term from one libm pow, ``_g`` through Python ``**`` and ``_g_row``
through ``np.float_power``, whose float64 loop calls libm pow per
element (``np.power`` has a SIMD loop, SVML on AVX-512 builds, that
rounds about 5% of the terms differently), and both add the terms in
table order. So a g has the same bits from either kernel, and the
printed scan does not depend on which one ran. Inputs are checked at the
entry points, never inside the kernels.

A bisection step of ``alpha_star`` needs only the sign of
psi = g - (1 + alpha/4) and whether |psi| <= tol. From
``_FILTER_MIN_TERMS`` distinct terms on (where the vectorized pass
starts to pay for its numpy call overhead), each step first takes g from
``_g_fast``, one ``np.power`` over the table and one pairwise sum, and
``_g_bound`` bounds how far the psi from it can lie from the psi of
``_g``. Where the fast psi clears tol by more than that bound, the exact
psi has the same sign and misses tol too; elsewhere (the final step,
steps near tol, overflow) the step runs ``_g``. So the roots keep every
bit, and one or two of the 30 to 40 steps of a call run the scalar
kernel: on a 2-core x86-64 host (AVX-512) ``alpha_star`` at n = 500
went from 0.81 to 0.28 ms and at n = 10**4 from 15 to 2 ms.
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
# a grid row of fewer terms (distinct terms times alphas) costs less as
# scalar _g calls than as numpy calls (measured)
_ROW_MIN_TERMS = 128
# terms per block of a vectorized grid row: about 2 MiB of terms and their
# running sums at a time, whatever n
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


def _sines(n: int) -> tuple[float, ...]:
    """The sine table of n as floats, for the scalar kernel ``_g``."""
    return tuple(_sine_table(n).tolist())


def _g(n: int, sines: tuple[float, ...], alpha: float) -> float:
    """g(n, alpha) from the sine table of n; n and alpha are already valid.

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


def _g_row(n: int, table: np.ndarray, alphas: list[float]) -> list[float]:
    """g(n, alpha) for every alpha of a grid row, each equal to ``_g``'s.

    The terms are ``np.float_power`` of the table, which calls libm pow
    once per element as Python ``**`` does (``np.power`` may take a SIMD
    pow that rounds differently), and keep ``_g``'s (1/s)**alpha form for
    integer alpha in 1..4. Each column is summed by ``np.add.accumulate``
    down the table, term by term in table order as ``_g`` adds them;
    ``np.add.reduce`` may sum pairwise. The alphas go ``_BLOCK`` terms at
    a time, and a row of fewer than ``_ROW_MIN_TERMS`` terms runs ``_g``
    itself. Call it with numpy overflow warnings off.
    """
    k = len(table)
    if k * len(alphas) < _ROW_MIN_TERMS:
        sines = table.tolist()
        return [_g(n, sines, a) for a in alphas]
    row = []
    step = max(1, _BLOCK // k)
    for i in range(0, len(alphas), step):
        part = alphas[i:i + step]
        whole = [a <= 4.0 and a.is_integer() for a in part]
        if any(whole):
            base = np.where(whole, 1.0 / table[:, None], table[:, None])
            exps = np.where(whole, part, np.negative(part))
        else:
            base, exps = table[:, None], np.negative(part)
        sums = np.add.accumulate(np.float_power(base, exps), axis=0)[-1]
        sums *= 2.0
        row += sums.tolist()
    if math.inf in row:
        alpha = alphas[row.index(math.inf)]
        raise UnsupportedExponent(f"g(n, alpha) overflows at n = {n}, alpha = {alpha}")
    if n % 2 == 0:
        return [(total + 1.0) / n for total in row]
    return [total / n for total in row]


def g_value(n: int, alpha: float) -> float:
    """(1/n) sum_j csc(j pi / n)**alpha, summed in symmetric pairs.

    Terms j and n - j are equal, so the sine table holds only
    j = 1..(n-1)//2 and the pair sum is doubled; even n adds the lone
    middle term csc(pi/2) = 1. Builds the table for this one call; to
    evaluate many alphas at one n, ``scan_region`` and ``alpha_star``
    reuse one table instead.
    """
    n = _arity(n)
    return _g(n, _sines(n), _check_alpha(alpha))


def condition_threshold(alpha: float) -> float:
    return 1.0 + alpha / 4.0


def _grid(n_values, alpha_grid):
    """g over the (n, alpha) cross product as (ns, alphas, thresholds, rows).

    ns and alphas come back sorted and without repeats, thresholds[i] is
    1 + alphas[i]/4 and rows[k][i] is g(ns[k], alphas[i]). Each n's sine
    table is built once and serves every alpha. Raises RegionNotClosed if
    some alpha's holding region is not an initial segment of ns.
    """
    ns = sorted(set(_arity(n) for n in n_values))
    alphas = sorted(set(_check_alpha(a) for a in alpha_grid))
    thresholds = [condition_threshold(a) for a in alphas]
    # float_power overflows to inf, which _g_row turns into the typed error
    with np.errstate(over="ignore"):
        rows = [_g_row(n, _sine_table(n), alphas) for n in ns]
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

    sines = _sines(n)
    k = len(sines)
    table = np.array(sines) if k >= _FILTER_MIN_TERMS else None
    g = math.nan

    def psi(a: float) -> float:
        # a fast psi comes back only when it clears tol by more than the
        # bound, so its sign and its miss of tol are those of _g's psi; a
        # psi within tol always comes from _g, which leaves its g in g
        nonlocal g
        threshold = condition_threshold(a)
        if table is not None:
            fast = _g_fast(n, table, a)
            value = fast - threshold
            if abs(value) > tol + _g_bound(k, fast, threshold):
                return value
        g = _g(n, sines, a)
        return g - threshold

    # np.power may overflow; such a step falls back to _g, which raises
    quiet = np.errstate(over="ignore") if table is not None else contextlib.nullcontext()
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
