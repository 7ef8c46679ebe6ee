"""Closed-form spectrum of the pair-weight matrix W at the regular n-gon.

W (zero diagonal) is the mass-space Hessian of the auxiliary functional.
With equal masses at the regular polygon it is circulant, so its
eigenvalues are the cosine transform of its first row and its
eigenvectors the root-of-unity vectors. The paper's condition on that
spectrum, g(n, alpha) <= 1 + alpha/4, is decided in ``scanner``.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedExponent
from .geometry import TAU, _chords, regular_ngon
from .potential import AuxiliaryFunctional, _pair_weights

# Entries per block of the cosine table: every n <= 1024 is one block, and
# a larger n holds about 8 MiB of the table at a time, not n**2 doubles.
_BLOCK = 1 << 20


def circulant_spectrum(aux: AuxiliaryFunctional, n: int) -> np.ndarray:
    """Closed-form spectrum of the equal-mass interaction matrix.

    At the regular n-gon the matrix W is circulant, so eigenvalue k is the
    cosine transform of the first row and eigenvector k the k-th
    root-of-unity vector (ξ_k, ξ_k**2, ..., ξ_k**n)/sqrt(n) with
    ξ_k = exp(2 pi i k / n). The first row is built from the n - 1 chords
    to body 0 alone, and the cosines one block of rows at a time.
    Eigenvalues come back in index order with the all-ones direction
    first. Raises ``UnsupportedExponent`` when the first row or an
    eigenvalue overflows, with no numpy warning ahead of it.
    """
    t = regular_ngon(n).angles
    n = t.size
    overflow = f"W overflows at n = {n}, alpha = {aux.alpha}"
    j = np.arange(n)
    tj = TAU * j
    rows = min(n, max(1, _BLOCK // n))
    table = np.empty((rows, n))
    spec = np.empty(n)
    with np.errstate(over="ignore", invalid="ignore"):
        row = np.concatenate(([0.0], _pair_weights(aux, _chords(t[0] - t[1:]))))
        if not np.isfinite(row).all():
            raise UnsupportedExponent(overflow)
        for i in range(0, n, rows):
            # the one-table form row * cos((TAU * j)[:, None] * j / n), in place
            c = table[:min(rows, n - i)]
            np.multiply.outer(tj[i:i + rows], j, out=c)
            c /= n
            np.cos(c, out=c)
            c *= row
            spec[i:i + rows] = np.sum(c, axis=1)
    # a finite row can still sum past a double
    if not np.isfinite(spec).all():
        raise UnsupportedExponent(overflow)
    return spec
