"""Dihedral relabeling symmetry and the exclusion criteria built on it.

The group of order 2n is generated by the cyclic shift P, which moves
every mass label down by one, and the reflection S, which reverses the
first n-1 labels and fixes the last. Each element pairs with an affine
action on pinned angle configurations that keeps every chord, so relabeled
masses minimize at the correspondingly transformed angles; the scans below
need only the mass action.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import DimensionError, InvalidArity
from .geometry import AngleConfiguration, MassVector
from .minimizer import MinimizeResult, minimize_f_k
from .potential import AuxiliaryFunctional, pair_weight_matrix
from .verifier import verify_cc

# A group certificate needs q(g) < -MARGIN_SCALE * |f|; a swap certificate
# is flagged inconsistent when verify_cc passes at VERIFY_TOL.
MARGIN_SCALE = 1e-10
VERIFY_TOL = 1e-9


@dataclass(frozen=True)
class GroupElement:
    """Element shift**h * reflection**l of the dihedral group of order 2n."""

    h: int
    l: int
    n: int

    def __post_init__(self):
        if self.n < 2:
            raise InvalidArity("the dihedral group needs n >= 2 labels")
        object.__setattr__(self, "h", self.h % self.n)
        object.__setattr__(self, "l", self.l % 2)

    @classmethod
    def identity(cls, n: int) -> "GroupElement":
        return cls(0, 0, n)

    @classmethod
    def shift(cls, n: int) -> "GroupElement":
        return cls(1, 0, n)

    @classmethod
    def reflection(cls, n: int) -> "GroupElement":
        return cls(0, 1, n)

    @classmethod
    def elements(cls, n: int) -> list["GroupElement"]:
        """All 2n elements, cyclic part first, then the reflections."""
        return [cls(h, l, n) for l in (0, 1) for h in range(n)]

    @property
    def is_identity(self) -> bool:
        return self.h == 0 and self.l == 0

    @property
    def is_reflection(self) -> bool:
        return self.l == 1

    def __mul__(self, other: "GroupElement") -> "GroupElement":
        """Composition: self applied after other (matrix order)."""
        if self.n != other.n:
            raise DimensionError("group elements act on different label counts")
        sign = -1 if self.l else 1
        return GroupElement(self.h + sign * other.h, self.l + other.l, self.n)


def act_on_masses(g: GroupElement, masses: MassVector) -> MassVector:
    """Permute the masses by g (reflection first, then the shifts)."""
    if g.n != masses.n:
        raise DimensionError(f"group on {g.n} labels, {masses.n} masses")
    m = masses.masses
    if g.l:
        m = np.concatenate([m[-2::-1], m[-1:]])
    if g.h:
        m = np.roll(m, -g.h)
    return MassVector(m)


@dataclass(frozen=True, eq=False)
class ExclusionVerdict:
    """Outcome of a symmetry-based exclusion scan.

    ``certificates`` lists every witness found with its margin, the
    single ``witness`` being the one with the largest margin. For the
    swap scan, ``inconsistent`` flags the impossible combination of a
    certificate with a passing residual check.
    """

    excluded: bool
    witness: "GroupElement | tuple[int, int] | None"
    margin: float
    certificates: tuple
    f_value: float
    theta_m: AngleConfiguration
    inconsistent: bool = False


def _mass_images(n: int) -> np.ndarray:
    """Index rows of the 2n - 1 non-identity elements, in ``elements`` order.

    ``m[rows[i]]`` is the image of m under element i + 1 of
    :meth:`GroupElement.elements`: the reflection reverses the first n - 1
    labels, then the shift by h rolls every label down by h, exactly as in
    :func:`act_on_masses`.
    """
    idx = np.arange(n)
    shifts = (idx[:, None] + idx[None, :]) % n
    reflection = np.append(idx[-2::-1], n - 1)
    return np.concatenate([shifts, reflection[shifts]])[1:]


@lru_cache(maxsize=8)
def _non_identity(n: int) -> tuple[GroupElement, ...]:
    """The 2n - 1 non-identity elements, one per row of ``_mass_images(n)``."""
    return tuple(GroupElement.elements(n)[1:])


def _group_scan(masses: MassVector, res: MinimizeResult, w: np.ndarray,
                diffs: np.ndarray) -> ExclusionVerdict:
    tol = MARGIN_SCALE * abs(res.f_value)
    elements = _non_identity(masses.n)
    certificates = []
    # one gemv per row: a batched einsum or gemm moves the last ulp of q
    for i in np.flatnonzero(diffs.any(axis=1)).tolist():
        d = diffs[i]
        q = 0.5 * float(d @ w @ d)
        if q < -tol:
            certificates.append((elements[i], -q))
    if certificates:
        witness, margin = max(certificates, key=lambda c: c[1])
        return ExclusionVerdict(True, witness, margin, tuple(certificates),
                                res.f_value, res.theta_m)
    return ExclusionVerdict(False, None, 0.0, (), res.f_value, res.theta_m)


def _swap_scan(aux: AuxiliaryFunctional, masses: MassVector, res: MinimizeResult,
               w: np.ndarray, diffs: np.ndarray) -> ExclusionVerdict:
    m = masses.masses
    # An image that differs from m in exactly two places is the swap of
    # those two masses, since every image is a permutation of m. There is
    # at most one such pair per image row. np.nonzero walks the rows in
    # order, so each row's two columns come out as one ascending pair.
    moved = diffs != 0.0
    cols = np.nonzero(moved[moved.sum(axis=1) == 2])[1].tolist()
    swaps = sorted(set(zip(cols[::2], cols[1::2])))
    # numpy-scalar ** 2 is C pow(); np.square differs from it in the last ulp
    certificates = [((j, k), float((m[k] - m[j]) ** 2 * w[j, k]))
                    for j, k in swaps]
    if certificates:
        witness, margin = max(certificates, key=lambda c: c[1])
        inconsistent = bool(
            verify_cc(aux.alpha, masses, res.theta_m, VERIFY_TOL).is_cc
        )
        return ExclusionVerdict(True, witness, margin, tuple(certificates),
                                res.f_value, res.theta_m, inconsistent)
    return ExclusionVerdict(False, None, 0.0, (), res.f_value, res.theta_m)


def exclusion_verdicts(aux: AuxiliaryFunctional, masses: MassVector
                       ) -> tuple[ExclusionVerdict, ExclusionVerdict]:
    """Group and swap exclusion verdicts from one minimization.

    Both scans rest on one Newton solve for the minimizer theta_m and the
    pair weights W there. If (m, theta_m) satisfied the
    central-configuration equations, the mass gradient of the functional
    would be a constant vector, so relabeling the masses to g m would
    change the value by the pure quadratic term
    q(g) = (gm - m)^T W (gm - m) / 2. Relabelings can never beat the
    minimum value, so a strict decrease proves no such configuration
    exists.

    The group verdict scans all 2n relabelings and certifies g when
    q(g) < -MARGIN_SCALE * |f|. The swap verdict certifies the 0-based
    pair (j, k) when exchanging the unequal masses j and k is itself a
    relabeling g m; q(g) then has the closed form
    -(m_k - m_j)**2 (r_jk**-alpha + r_jk**2/k), and the margin is its
    negative. A swap certificate coexisting with a passing residual check
    at ``VERIFY_TOL`` is flagged inconsistent.

    Both scans work on the stacked (2n - 1) x n image differences g m - m,
    with O(n**2) work per image.
    """
    res = minimize_f_k(aux, masses)
    w = pair_weight_matrix(aux, res.theta_m)
    m = masses.masses
    diffs = m[_mass_images(masses.n)] - m
    return (_group_scan(masses, res, w, diffs),
            _swap_scan(aux, masses, res, w, diffs))
