"""Dihedral relabeling symmetry and the exclusion criteria built on it.

The group of order 2n is generated by the cyclic shift P, which moves
every mass label down by one, and the reflection S, which reverses the
first n-1 labels and fixes the last. Each element pairs with an affine
action on pinned angle configurations that keeps every chord, so relabeled
masses minimize at the correspondingly transformed angles. The scans need
only the elements and their mass action, the index formula ``_image``, so
that is all this module holds; the test oracles list the group, compose
and act on angles. Element e = h + n*l of the scans' order is
shift**h * reflection**l: the cyclic part first, then the reflections.

A verdict is its certificates: ``ExclusionVerdict`` takes them and
derives ``excluded``, ``witness`` and ``margin`` from them. The group
scan takes the q of every distinct image of the masses from one stacked
matmul, whose loop runs, per image, the gemv and the dot of ``d @ w @ d``
and so keeps its bits, where a gemm would not. The rows are distinct
unless an element other than the identity fixes m; then the scan keeps
one row per distinct image, keyed by its bytes (one-heavy and two-heavy
masses repeat about half their images). It builds a ``GroupElement``
only for a certificate, from the h, l and n it computed, unchecked.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError, DomainError, InvalidArity
from .geometry import AngleConfiguration, MassVector
from .minimizer import minimize_f_k
from .potential import AuxiliaryFunctional, _check_finite, pair_weight_matrix
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
        try:
            h, l, n = map(operator.index, (self.h, self.l, self.n))
        except TypeError:
            raise DomainError(f"h, l and n must be integers, got "
                              f"{self.h!r}, {self.l!r}, {self.n!r}") from None
        if n < 2:
            raise InvalidArity("the dihedral group needs n >= 2 labels")
        object.__setattr__(self, "h", h % n)
        object.__setattr__(self, "l", l % 2)
        object.__setattr__(self, "n", n)

    @property
    def is_reflection(self) -> bool:
        return self.l == 1


def _image(h, l: int, n: int) -> np.ndarray:
    """Index row of shift**h * reflection**l, or one row per h of a column h.

    m[row] is the image of m: label i takes the mass at i + h - n, or with
    the reflection at n - 2 - h - i, indices numpy reads mod n for h < n.
    """
    i = np.arange(n)
    return n - 2 - h - i if l else i + h - n


def act_on_masses(g: GroupElement, masses: MassVector) -> MassVector:
    """Permute the masses by g (reflection first, then the shifts)."""
    if g.n != masses.n:
        raise DimensionError(f"group on {g.n} labels, {masses.n} masses")
    return MassVector(masses.masses[_image(g.h, g.l, g.n)])


@dataclass(frozen=True, eq=False)
class ExclusionVerdict:
    """Outcome of a symmetry-based exclusion scan.

    ``certificates`` lists every witness found with its margin; the rest
    derives from it. ``excluded`` says whether there is one, and
    ``witness`` and ``margin`` are those of the first certificate with
    the largest margin (None and 0.0 without one). For the swap scan,
    ``inconsistent`` flags the impossible combination of a certificate
    with a passing residual check.
    """

    certificates: tuple
    f_value: float
    theta_m: AngleConfiguration
    inconsistent: bool = False
    excluded: bool = field(init=False)
    witness: "GroupElement | tuple[int, int] | None" = field(init=False)
    margin: float = field(init=False)

    def __post_init__(self):
        witness, margin = max(self.certificates, key=lambda c: c[1],
                              default=(None, 0.0))
        object.__setattr__(self, "excluded", bool(self.certificates))
        object.__setattr__(self, "witness", witness)
        object.__setattr__(self, "margin", margin)


def _mass_images(n: int) -> np.ndarray:
    """Index rows of the 2n - 1 non-identity elements, in the scans' order.

    ``m[rows[i]]`` is the image of m under element i + 1: the shift table,
    then the reflection's ``_image`` indexed by it.
    """
    shifts = _image(np.arange(n)[:, None], 0, n)
    return np.concatenate([shifts, _image(0, 1, n)[shifts]])[1:]


def _element(h: int, l: int, n: int) -> GroupElement:
    """``GroupElement(h, l, n)`` for ints 0 <= h < n, l in {0, 1}, n >= 2, unchecked."""
    g = object.__new__(GroupElement)
    g.__dict__.update(h=h, l=l, n=n)
    return g


def _distinct_rows(diffs: np.ndarray, rows: np.ndarray) -> tuple[list[int], list[int]]:
    """The first of ``rows`` with each distinct bytes, and each row's place among them.

    Equal images of m give equal rows, and equal rows equal q, so the scan
    evaluates one row per image. One call builds every row's key, the
    bytes of a void view of the row, which the scan holds until it has its
    rows.
    """
    keys = diffs.view(np.dtype((np.void, diffs.shape[1] * diffs.itemsize)))[:, 0].tolist()
    slot, picks, inverse = {}, [], []
    for i in rows.tolist():
        j = slot.setdefault(keys[i], len(picks))
        if j == len(picks):
            picks.append(i)
        inverse.append(j)
    return picks, inverse


def _group_scan(tol: float, w: np.ndarray, diffs: np.ndarray,
                rows: np.ndarray) -> tuple[tuple, list[float]]:
    """(g, -q(g)) for each of the image ``rows`` with q(g) < -tol, and every q.

    Row i of ``diffs`` belongs to element i + 1 = h + n*l of the scans' order.
    The q list holds one q per row when all 2n - 1 rows move a mass, else
    one per distinct row, in the order the rows first come.
    """
    n = diffs.shape[1]
    if len(rows) == 2 * n - 1:
        # only the identity fixes m, so the images, and the rows, are distinct
        distinct, inverse = diffs, slice(None)
    else:
        picks, inverse = _distinct_rows(diffs, rows)
        distinct = diffs[picks]
    # numpy's matmul loop hands each stacked (1, n) @ (n, n) and (1, n) @ (n, 1)
    # to the gemv and the dot that d @ w @ d calls on one row, so every q
    # keeps its bits; a gemm or an einsum sums in another order and moves
    # the last ulp
    q = 0.5 * ((distinct[:, None, :] @ w) @ distinct[:, :, None]).ravel()
    q_rows = q[inverse]
    hits = np.flatnonzero(q_rows < -tol)
    elements = (rows[hits] + 1).tolist()
    certificates = tuple((_element(e % n, e // n, n), margin)
                         for e, margin in zip(elements, (-q_rows[hits]).tolist()))
    return certificates, q.tolist()


def _swap_scan(m: np.ndarray, w: np.ndarray, swapped: np.ndarray) -> tuple:
    """((j, k), (m_k - m_j)**2 W_jk) for the pair each ``swapped`` row moves."""
    # np.nonzero walks the rows in order, so each row's two columns come
    # out as one ascending pair
    cols = np.nonzero(swapped)[1].tolist()
    swaps = sorted(set(zip(cols[::2], cols[1::2])))
    # numpy-scalar ** 2 is C pow(); np.square differs from it in the last ulp
    return tuple(((j, k), float((m[k] - m[j]) ** 2 * w[j, k])) for j, k in swaps)


def exclusion_verdicts(aux: AuxiliaryFunctional, masses: MassVector
                       ) -> tuple[ExclusionVerdict, ExclusionVerdict]:
    """Group and swap exclusion verdicts from one minimization.

    Both scans rest on one Newton solve for the minimizer theta_m and the
    pair weights W there; W builds its own chords, and the residual check
    reuses the frame the solve leaves in this thread's workspace. If
    (m, theta_m) satisfied the central-configuration equations, the mass
    gradient of the functional would be a constant vector, so relabeling
    the masses to g m would change the value by the pure quadratic term
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
    with O(n**2) work per image, classified in one pass: the group scan
    takes every row that moves a mass, the swap scan every row that moves
    exactly two. Since every image is a permutation of m, such a row is
    the swap of those two masses, and a row holds at most one swap.

    W is finite, so a q or a swap margin past a double is the masses'
    doing: ``DomainError``, with no numpy warning ahead of it.
    """
    res = minimize_f_k(aux, masses)
    w = pair_weight_matrix(aux, res.theta_m)
    m = masses.masses
    diffs = m[_mass_images(masses.n)] - m
    moved = diffs != 0.0
    counts = moved.sum(axis=1)
    with np.errstate(over="ignore", invalid="ignore"):
        group, qs = _group_scan(MARGIN_SCALE * abs(res.f_value), w, diffs,
                                np.flatnonzero(counts))
        swap = _swap_scan(m, w, moved[counts == 2])
    # an overflowed q is inf, or NaN from inf - inf, which q < -tol would drop
    _check_finite(aux.alpha, qs + [margin for _, margin in swap])
    inconsistent = bool(swap) and verify_cc(aux.alpha, masses, res.theta_m,
                                            VERIFY_TOL).is_cc
    return (ExclusionVerdict(group, res.f_value, res.theta_m),
            ExclusionVerdict(swap, res.f_value, res.theta_m, inconsistent))
