"""Masses, angles, and chord geometry on the unit circle.

A configuration is n bodies at q_j = exp(i t_j) on the unit circle with
strictly increasing angles in (0, 2*pi]. Pinning t_n = 2*pi removes the
rotational freedom; that pinned set is the domain used by the minimizer
and by the symmetry-group actions.

Pair quantities are held packed: one entry per pair j < k, in
``np.triu_indices(n, 1)`` order, which is also the row-major order of the
True entries of the strict upper-triangle mask. ``_pair_chords`` builds
the differences du = t_j - t_k and the chords ru = |2 sin(du/2)| once per
point, into fresh arrays or the caller's buffers, and checks nothing.
``AngleConfiguration`` checks the angles, ``_check_gaps`` a
configuration's gaps against ``COLLISION_TOL`` and the minimizer's line
search its trials' gaps, so every chord lies in (0, 2]. ``_mirror``
expands packed pair quantities into an n x n matrix with a zero diagonal,
writing the upper triangle through that mask and the lower one through
the same mask on the transposed view. The mirror reproduces the
full-matrix formulas bit for bit: t_k - t_j is exactly -(t_j - t_k) in
IEEE arithmetic, numpy's sin is odd and its cos even (checked bit for bit
by the tests), so a symmetric quantity is mirrored as is and an
antisymmetric one with its sign flipped.
"""

from __future__ import annotations

import math
import numbers
import operator
import sys
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import CollisionError, DimensionError, DomainError, InvalidArity

TAU = 2.0 * math.pi

# Two bodies whose circular angle distance falls below this are treated as
# colliding; beyond it the r**-(alpha + 2) terms lose all conditioning.
COLLISION_TOL = 1e-12


def _readonly(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class MassVector:
    """Positive masses m_1..m_n; ``total_mass`` caches their sum."""

    masses: np.ndarray
    total_mass: float = field(init=False)

    def __post_init__(self):
        try:
            m = np.array(self.masses, dtype=float)
        except OverflowError:  # an int past a double
            raise DomainError("masses must be positive and finite") from None
        if m.ndim != 1 or m.size < 2:
            raise InvalidArity("a mass vector needs at least two entries")
        if not np.all(np.isfinite(m)) or np.any(m <= 0.0):
            raise DomainError("masses must be positive and finite")
        try:
            total = math.fsum(m)
        except OverflowError:
            raise DomainError("the total mass overflows a double") from None
        object.__setattr__(self, "masses", _readonly(m))
        object.__setattr__(self, "total_mass", total)

    @property
    def n(self) -> int:
        return self.masses.size


@dataclass(frozen=True, eq=False)
class AngleConfiguration:
    """Angles 0 < t_1 < ... < t_n <= 2*pi; t_n == 2*pi is the pinned form."""

    angles: np.ndarray

    def __post_init__(self):
        try:
            t = np.array(self.angles, dtype=float)
        except OverflowError:  # an int past a double
            raise DomainError("angles must be finite") from None
        if t.ndim != 1 or t.size < 2:
            raise InvalidArity("an angle configuration needs at least two entries")
        if not np.all(np.isfinite(t)):
            raise DomainError("angles must be finite")
        if t[0] <= 0.0 or t[-1] > TAU:
            raise DomainError("angles must lie in (0, 2*pi]")
        # a comparison, where np.diff of wild angles could overflow
        if np.any(t[1:] <= t[:-1]):
            raise DomainError("angles must be strictly increasing")
        object.__setattr__(self, "angles", _readonly(t))

    @property
    def n(self) -> int:
        return self.angles.size

    def normalized(self) -> "AngleConfiguration":
        """Rotate so the last angle is exactly 2*pi."""
        t = self.angles + (TAU - self.angles[-1])
        t[-1] = TAU
        return AngleConfiguration(t)

    def min_gap(self) -> float:
        """Smallest circular gap between consecutive bodies (wrap included)."""
        gaps = np.diff(self.angles)
        wrap = self.angles[0] + TAU - self.angles[-1]
        return float(min(np.min(gaps), wrap))

    def positions(self) -> np.ndarray:
        """Unit-circle positions exp(i t_j)."""
        return np.exp(1j * self.angles)


@lru_cache(maxsize=8)
def _pairs(n: int):
    """Packed pair indices (j, k), j < k, and the strict upper-triangle mask.

    Callers must not write to them. The indices stay writeable because
    ``ndarray.take`` copies a read-only index array before every gather.
    """
    j, k = np.triu_indices(n, 1)
    mask = np.zeros((n, n), dtype=bool)
    mask[j, k] = True
    return j, k, _readonly(mask)


def _mirror(n: int, upper: np.ndarray, lower: np.ndarray, out=None) -> np.ndarray:
    """n x n matrix with ``upper`` above, ``lower`` below and zeros on the diagonal.

    Entry p of ``upper`` lands at (j_p, k_p) and entry p of ``lower`` at
    (k_p, j_p), with (j_p, k_p) the packed pair order. A reused ``out``
    must be C-contiguous: its diagonal is zeroed here through a strided
    view of its flat buffer, and every other entry is overwritten. A
    ``lower`` of None leaves the lower triangle to the caller, who writes
    it through the same mask on ``out.T``.
    """
    mask = _pairs(n)[2]
    if out is None:
        out = np.zeros((n, n))
    else:
        out.reshape(-1)[:: n + 1] = 0.0
    out[mask] = upper
    if lower is not None:
        out.T[mask] = lower
    return out


def _check_gaps(config: AngleConfiguration) -> None:
    """CollisionError unless every circular gap is at least COLLISION_TOL."""
    if config.min_gap() < COLLISION_TOL:
        raise CollisionError(
            f"two bodies are within {COLLISION_TOL} radians of each other"
        )


def _pair_chords(t: np.ndarray, out=(None,) * 3):
    """Packed du = t_j - t_k and chords ru = |2 sin(du/2)|, j < k, of angles t.

    The half-angle form avoids the cancellation that sqrt(2 - 2 cos)
    suffers for nearly coincident bodies. The angles are not checked here:
    callers pass increasing angles in (0, 2*pi] with every circular gap at
    least ``COLLISION_TOL``. ``out`` is du, ru and a pair buffer for t_k.
    """
    j, k, _ = _pairs(t.size)
    # 'clip' skips the bounds pass that makes take buffer its out
    du = t.take(j, out=out[0], mode="clip")
    du -= t.take(k, out=out[2], mode="clip")
    return du, _chords(du, out[1])


def _chords(du: np.ndarray, out=None) -> np.ndarray:
    """Chords |2 sin(du/2)| of the angle differences du, clamped to the diameter."""
    ru = np.multiply(0.5, du, out=out)
    np.sin(ru, out=ru)
    ru *= 2.0
    np.abs(ru, out=ru)
    # clamp roundoff just above the diameter; ru is an abs, so >= +0.0 or NaN
    return np.minimum(ru, 2.0, out=ru)


def _check_pinned(config: AngleConfiguration) -> None:
    """DomainError unless t_n is 2*pi to within 1e-12."""
    if abs(config.angles[-1] - TAU) > 1e-12:
        raise DomainError("configuration must be pinned: t_n = 2*pi")


def _shown(value) -> str:
    """value as an error message prints it: a number by str(), anything else by repr().

    An int too long for str() shows its size.
    """
    try:
        return str(value) if isinstance(value, numbers.Number) else repr(value)
    except ValueError:  # past the interpreter's limit on int digits
        return f"an int of {value.bit_length()} bits"


def _arity(n) -> int:
    """n as a Python int; InvalidArity unless it is an integer in 3..sys.maxsize.

    sys.maxsize bounds every array length, so a larger n has no sine table
    and no configuration.
    """
    try:
        n = operator.index(n)
    except TypeError:
        raise InvalidArity(f"n must be an integer, got {n!r}") from None
    if n < 3:
        raise InvalidArity(f"need n >= 3 bodies, got {_shown(n)}")
    if n > sys.maxsize:
        raise InvalidArity(f"need n <= {sys.maxsize} bodies, got {_shown(n)}")
    return n


def _tolerance(tol, name: str) -> float:
    """tol as a float; DomainError unless it is a finite real number >= 0."""
    if not (isinstance(tol, numbers.Real) and tol >= 0.0):
        raise DomainError(f"{name} must be a nonnegative number, got {_shown(tol)}")
    try:
        tol = float(tol)
    except OverflowError:  # an int past a double
        raise DomainError(f"{name} must fit a double") from None
    if tol == math.inf:
        raise DomainError(f"{name} must be finite, got inf")
    return tol


def regular_ngon(n: int) -> AngleConfiguration:
    """Pinned regular n-gon: t_j = 2*pi*j/n with t_n = 2*pi exactly."""
    n = _arity(n)
    try:
        t = TAU * np.arange(1, n + 1) / n
    except MemoryError:
        raise DomainError(f"no memory holds the regular n-gon at n = {n}") from None
    # 2*pi*n/n can round one ulp past 2*pi; the last angle is pinned
    t[-1] = TAU
    return AngleConfiguration(t)


def _check_lengths(masses: MassVector, config: AngleConfiguration) -> None:
    """DimensionError unless there is one angle per mass."""
    if masses.n != config.n:
        raise DimensionError(f"{masses.n} masses but {config.n} angles")


def center_of_mass(masses: MassVector, config: AngleConfiguration) -> complex:
    """(1/M) sum_j m_j exp(i t_j) as a complex number."""
    _check_lengths(masses, config)
    z = np.sum(masses.masses * config.positions())
    return complex(z / masses.total_mass)
