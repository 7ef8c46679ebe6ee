"""Reference exclusion scans: one MassVector per group element, O(n**4) swaps.

These are the straightforward loops the package's stacked scans replace.
The tests compare the two bit for bit; the package never imports this.
"""

import numpy as np

from cocircular import (
    ExclusionVerdict,
    act_on_masses,
    minimize_f_k,
    pair_weight_matrix,
    verify_cc,
)
from oracle import elements, is_identity


def reference_exclusion_by_group(aux, masses, *, margin_scale=1e-10):
    res = minimize_f_k(aux, masses)
    w = pair_weight_matrix(aux, res.theta_m)
    tol = margin_scale * abs(res.f_value)
    m = masses.masses
    certificates = []
    for g in elements(masses.n):
        if is_identity(g):
            continue
        d = act_on_masses(g, masses).masses - m
        if not d.any():
            continue
        q = 0.5 * float(d @ w @ d)
        if q < -tol:
            certificates.append((g, -q))
    return ExclusionVerdict(tuple(certificates), res.f_value, res.theta_m)


def reference_exclusion_by_swap(aux, masses, *, verify_tol=1e-9):
    res = minimize_f_k(aux, masses)
    w = pair_weight_matrix(aux, res.theta_m)
    m = masses.masses
    n = masses.n
    images = [act_on_masses(g, masses).masses
              for g in elements(n) if not is_identity(g)]
    certificates = []
    for j in range(n):
        for k in range(j + 1, n):
            if m[j] == m[k]:
                continue
            drop = -((m[k] - m[j]) ** 2) * w[j, k]
            swapped = m.copy()
            swapped[[j, k]] = swapped[[k, j]]
            if any(np.array_equal(img, swapped) for img in images):
                certificates.append(((j, k), float(-drop)))
    inconsistent = bool(certificates) and bool(
        verify_cc(aux.alpha, masses, res.theta_m, verify_tol).is_cc
    )
    return ExclusionVerdict(tuple(certificates), res.f_value, res.theta_m,
                            inconsistent)
