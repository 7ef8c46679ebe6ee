"""Reference scanner: every g evaluation recomputes its own sines.

This is the straightforward g(n, alpha) that the package's sine-table
kernel replaces, and the bisection for the critical exponent on top of
it. ``alpha_star_every_step`` is the package's bisection as it was before
its steps were settled from bounds on g, with the package's exact kernel
``_g`` run at every step: a step settled by a bound must decide as
``_g`` would, so whether a bound or ``_g`` decides a step cannot change
an outcome. The tests compare the package with both bit for bit; the
package never imports this.
"""

import math

import numpy as np

from cocircular import (ConvergenceFailure, DomainError, InvalidArity, NoBracket,
                        UnsupportedExponent, condition_threshold)
from cocircular.geometry import _arity, _tolerance
from cocircular.scanner import _ALPHA_CAP, _ALPHA_SEED, _g, _sine_table


def g_value(n: int, alpha: float) -> float:
    """(1/n) sum_j csc(j pi / n)**alpha, summed in symmetric pairs.

    Terms j and n - j are equal, so each pair is computed once and
    doubled; even n contributes the lone middle term csc(pi/2) = 1.
    """
    if n < 3:
        raise InvalidArity(f"need n >= 3 bodies, got {n}")
    if not (alpha > 0.0 and math.isfinite(alpha)):
        raise UnsupportedExponent(f"alpha must be positive, got {alpha}")
    a_int = int(alpha) if float(alpha).is_integer() and alpha <= 4 else 0
    total = 0.0
    try:
        for j in range(1, (n - 1) // 2 + 1):
            s = math.sin(j * math.pi / n)
            total += 2.0 * ((1.0 / s) ** a_int if a_int else s ** -alpha)
    except OverflowError:
        total = math.inf
    if total == math.inf:
        raise UnsupportedExponent(f"g(n, alpha) overflows at n = {n}, alpha = {alpha}")
    if n % 2 == 0:
        total += 1.0
    return total / n


def alpha_star(n: int, tol: float = 1e-12) -> float:
    """Bracket by doubling from alpha = 1/64, then bisect on the reference g.

    The bisection stops when no double lies strictly between lo and hi.
    """
    if n < 3:
        raise InvalidArity(f"need n >= 3 bodies, got {n}")
    if not tol >= 0.0:
        raise DomainError(f"tol must be a nonnegative number, got {tol}")

    def psi(a: float) -> float:
        return g_value(n, a) - condition_threshold(a)

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
    mid = 0.5 * (lo + hi)
    while lo < mid < hi:
        value = psi(mid)
        if abs(value) <= tol:
            return mid
        if value < 0.0:
            lo = mid
        else:
            hi = mid
        mid = 0.5 * (lo + hi)
    raise ConvergenceFailure(
        f"bisection residual above {tol} with no double between {lo!r} and {hi!r}"
    )


def alpha_star_every_step(n: int, tol: float = 1e-12) -> tuple[float, float]:
    """The root and its g from a bisection that runs ``_g`` at every step."""
    n, tol = _arity(n), _tolerance(tol, "tol")
    table = _sine_table(n)
    g = math.nan

    def psi(a: float) -> float:
        nonlocal g
        g = _g(n, table, a)
        return g - condition_threshold(a)

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
        mid = 0.5 * (lo + hi)
        while lo < mid < hi:
            value = psi(mid)
            if abs(value) <= tol:
                return mid, g
            if value < 0.0:
                lo = mid
            else:
                hi = mid
            mid = 0.5 * (lo + hi)
    raise ConvergenceFailure(f"bisection residual above {tol} with no double "
                             f"between {lo!r} and {hi!r}")
