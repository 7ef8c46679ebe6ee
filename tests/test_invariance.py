"""Verdicts under the symmetries of the mathematics, beyond the small n
that the property tests draw.

Scaling the masses by s scales f, its gradients and every certificate
margin by s**2 and leaves the minimizer's angles alone. For s = 2**k the
Newton loop's arithmetic scales exactly, and its stopping test
gnorm <= grad_tol * |f| with it, so the angles keep every bit. Relabeling
the masses by a dihedral element permutes the images that the group scan
visits, so the verdicts and the sorted margins stay, up to rounding.
Rotating every angle by the same c moves no chord, so ``verify_cc`` keeps
its verdict.
"""

import math

import numpy as np
import pytest

from cocircular import (AngleConfiguration, AuxiliaryFunctional, ConvergenceFailure,
                        DomainError, GroupElement, MassVector, act_on_masses,
                        exclusion_verdicts, minimize_f_k, verify_cc)
from conftest import certify_masses

SCALE_CASES = {
    "hexagon": (np.array([1.0, 2.0, 5.0, 3.0, 1.0, 4.0]), 1.0),
    "uniform-13": (np.random.default_rng(13).uniform(0.5, 2.0, 13), 0.5),
    "one-heavy-9": (certify_masses("one-heavy", 9, ratio=300.0), 3.0),
    "two-heavy-28": (certify_masses("two-heavy", 28), 1.0),
}


def _solve(alpha, masses):
    aux = AuxiliaryFunctional(alpha)
    return minimize_f_k(aux, MassVector(masses)), exclusion_verdicts(aux, MassVector(masses))


@pytest.mark.parametrize("case", list(SCALE_CASES))
def test_power_of_two_mass_scale_keeps_every_bit(case):
    # down to 2**-500, where the gradient's sum of squares (about m**4)
    # lies far below the smallest normal double, and up to 2**504, where
    # it lies far above the largest. A largest mass m above the hexagon's
    # 5 lowers the top by log2(m / 5): the pair products overflow sooner.
    masses, alpha = SCALE_CASES[case]
    res, (group, swap) = _solve(alpha, masses)
    assert res.iterations > 0
    top = 504 - max(0, math.ceil(math.log2(masses.max() / 5.0)))
    for k in (*range(-500, top, 20), top):
        scaled, (g, s) = _solve(alpha, masses * 2.0 ** k)
        assert scaled.theta_m.angles.tobytes() == res.theta_m.angles.tobytes(), k
        assert scaled.iterations == res.iterations, k
        assert g.certificates == tuple((w, q * 4.0 ** k) for w, q in group.certificates), k
        assert s.certificates == tuple((w, q * 4.0 ** k) for w, q in swap.certificates), k
        assert s.inconsistent == swap.inconsistent, k


@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
def test_small_masses_never_stop_at_the_start(alpha):
    # gr @ gr once underflowed to 0 from about 2**-280 on, and the start
    # hexagon, which is not the minimizer here, came back converged at 0
    # iterations. Now every k down to -500 keeps k = 0's bits; further
    # down, a solve either ends at k = 0's minimizer or raises.
    masses = SCALE_CASES["hexagon"][0]
    aux = AuxiliaryFunctional(alpha)
    res = minimize_f_k(aux, MassVector(masses))
    assert res.iterations > 0
    for k in range(-240, -1080, -4):
        try:
            out = minimize_f_k(aux, MassVector(masses * 2.0 ** k))
        except (ConvergenceFailure, DomainError):
            assert k < -500, k
            continue
        assert out.converged and out.iterations > 0, k
        if k >= -500:
            assert out.theta_m.angles.tobytes() == res.theta_m.angles.tobytes(), k
        np.testing.assert_allclose(out.theta_m.angles, res.theta_m.angles,
                                   rtol=0, atol=1e-9, err_msg=f"k = {k}")


@pytest.mark.parametrize("case", list(SCALE_CASES))
def test_decimal_mass_scale_keeps_verdicts(case):
    masses, alpha = SCALE_CASES[case]
    res, verdicts = _solve(alpha, masses)
    for x in range(-12, 65):
        scaled, scaled_verdicts = _solve(alpha, masses * 10.0 ** x)
        np.testing.assert_allclose(scaled.theta_m.angles, res.theta_m.angles,
                                   rtol=0, atol=1e-9, err_msg=f"x = {x}")
        # the witness is left out: mirror-image elements tie in margin, and
        # rounding picks either
        for v, w in zip(scaled_verdicts, verdicts):
            assert (v.excluded, v.inconsistent) == (w.excluded, w.inconsistent), x
            assert [c for c, _ in v.certificates] == [c for c, _ in w.certificates], x


def _relabel_masses(kind, n):
    if kind == "one-heavy":
        return certify_masses("one-heavy", n, ratio=50.0)
    if kind == "few-valued":
        return np.resize([1.0, 2.0, 3.0], n)
    return np.random.default_rng(n).uniform(0.5, 2.0, n)


@pytest.mark.parametrize("kind", ["one-heavy", "few-valued", "uniform"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [13, 26, 40, 64, 128, 256])
def test_relabeling_keeps_verdicts(n, alpha, kind):
    aux = AuxiliaryFunctional(alpha)
    m = MassVector(_relabel_masses(kind, n))
    base = exclusion_verdicts(aux, m)
    for g in (GroupElement(3, 0, n), GroupElement(0, 1, n)):
        relabeled = exclusion_verdicts(aux, act_on_masses(g, m))
        for v, w in zip(relabeled, base):
            assert v.excluded == w.excluded
            assert len(v.certificates) == len(w.certificates)
        np.testing.assert_allclose(sorted(q for _, q in relabeled[0].certificates),
                                   sorted(q for _, q in base[0].certificates), rtol=1e-8)


@pytest.mark.parametrize("kind", ["equal", "uniform"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [3, 7, 40, 256])
def test_rotation_keeps_cc_verdict(n, alpha, kind):
    masses = MassVector(np.ones(n) if kind == "equal"
                        else np.random.default_rng(n).uniform(0.5, 2.0, n))
    t = minimize_f_k(AuxiliaryFunctional(alpha), masses).theta_m.angles
    base = verify_cc(alpha, masses, AngleConfiguration(t)).is_cc
    # t -> t - c for c in (0, t_1) keeps every angle in (0, 2*pi]
    for c in t[0] * np.array([0.01, 0.25, 0.5, 0.99]):
        assert verify_cc(alpha, masses, AngleConfiguration(t - c)).is_cc == base, c
