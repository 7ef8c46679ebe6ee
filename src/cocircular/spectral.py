"""Closed-form spectrum of the pair-weight matrix W at the regular n-gon.

W (zero diagonal) is the mass-space Hessian of the auxiliary functional.
With equal masses at the regular polygon it is circulant, so its
eigenvalues are the discrete Fourier transform of its first row and its
eigenvectors the root-of-unity vectors. The paper's condition on that
spectrum, g(n, alpha) <= 1 + alpha/4, is decided in ``scanner``.
"""

from __future__ import annotations

import numpy as np

from .errors import UnsupportedExponent
from .geometry import _arity
from .potential import AuxiliaryFunctional, _pair_weights
from .scanner import _sine_table


def circulant_spectrum(aux: AuxiliaryFunctional, n: int) -> np.ndarray:
    """Closed-form spectrum of the equal-mass interaction matrix.

    At the regular n-gon the matrix W is circulant, so eigenvalue k is the
    discrete Fourier transform of the first row at k and eigenvector k the
    k-th root-of-unity vector (ξ_k, ξ_k**2, ..., ξ_k**n)/sqrt(n) with
    ξ_k = exp(2 pi i k / n). Entry j of the first row is the pair weight
    w(r) = r**-alpha + r**2/k of the chord r = 2 sin(j pi / n), which is
    the chord to body n - j as well: the row is 0, the weights of the
    chords of ``scanner._sine_table`` (the sines g sums), the diameter's
    w(2) when n is even, and the same weights mirrored, so it is symmetric
    bit for bit. The row is real and symmetric, so is its transform:
    ``np.fft.rfft`` gives eigenvalues 0..n//2 at O(n log n) cost in O(n)
    memory, and eigenvalue n - k is eigenvalue k, bit for bit. Eigenvalues
    come back in index order with the all-ones direction first. Raises
    ``UnsupportedExponent`` when the first row or an eigenvalue overflows,
    with no numpy warning ahead of it.

    With u = 2**-53 and S = sum(row) (the exact row's; every entry is
    positive, so S is eigenvalue 0), each eigenvalue is within

        u (11 alpha + 33 + 8 (1 + log2 n)) S

    of the exact spectrum of the exact row, the one with exact chords and
    k as the double aux.k:

    - the row: each sine is within 11u, as ``scanner._g_error`` derives.
      r**-alpha multiplies that by alpha and adds at most 8u: ``np.power``
      is within 4 ulp, and for alpha in 1..4 the multiply chain and its
      reciprocal round alpha times. r**2/k carries twice the sine's 11u
      and 2u from its multiply and divide, and adding the two parts costs
      u. So an entry is within (11 alpha + 33) u of itself, and since
      |cos| <= 1 no eigenvalue moves by more than that times S;
    - the transform: pocketfft splits n into passes. Follow one row
      entry's share of eigenvalue k through them: a sum scales it by a
      factor within u of 1, a product by a rounded constant within 2u;
      a twiddle, a complex product of two real products and a sum, moves
      it by the twiddle's own error (2u) plus 2 sqrt(2) u of its modulus
      (by Cauchy-Schwarz). A pass of radix 2, 3, 4 or 5 takes each input
      through one twiddle and then at most four sums and one product by
      a constant, which comes to at most 6u per factor of two in n
      (radix 2's 5.83u is the largest). The shares' moduli sum to S, so
      eigenvalue k is within S ((1 + 6u)**log2(n) - 1), about
      6u log2(n) S, of the row's exact transform; 8u per level over
      1 + log2 n levels covers the second-order terms.

    That count covers every n whose prime factors are 2, 3 and 5. A
    generic pass of a larger prime radix p adds up to (p + 1)/2 terms in
    turn, and Bluestein's algorithm, which pocketfft takes for some n with
    a large prime factor, convolves through two further transforms; in
    the worst case neither fits 8u per level, so for those n the bound is
    measured, not derived: over n = 3..1100 and alpha in {0.1, 0.5, 1, 2,
    2.9, 3, 4} the largest error against a long-double sum is
    1.7u (1 + log2 n) S, at n = 269, a generic pass.
    """
    n = _arity(n)
    with np.errstate(over="ignore", invalid="ignore"):
        half = _pair_weights(aux, 2.0 * _sine_table(n))
        diameter = _pair_weights(aux, np.full(1 - n % 2, 2.0))
        spec = np.fft.rfft(np.concatenate(([0.0], half, diameter, half[::-1]))).real
    # an overflowed row gives an infinite eigenvalue 0; a finite row can
    # still sum past a double
    if not np.isfinite(spec).all():
        raise UnsupportedExponent(f"W overflows at n = {n}, alpha = {aux.alpha}")
    return np.concatenate((spec, spec[(n - 1) // 2:0:-1]))
