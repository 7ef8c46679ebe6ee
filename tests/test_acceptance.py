"""End-to-end acceptance gate.

Each test prints one PASS/FAIL line with its runtime and asserts the
collected checks, so a red criterion names every violated bound instead
of stopping at the first.
"""

import math
import time

import numpy as np

from cocircular import (
    TAU,
    AngleConfiguration,
    AuxiliaryFunctional,
    MassVector,
    alpha_star,
    circulant_spectrum,
    condition_threshold,
    exclusion_verdicts,
    g_value,
    grad_theta_f_k,
    minimize_f_k,
    pair_weight_matrix,
    regular_ngon,
    scan_region,
    verify_cc,
)
import reference_potential as ref
from oracle import (
    brute_minimize,
    finite_difference_gradient,
    finite_difference_hessian,
    taylor_identity_check,
)
from reference_potential import f_k_value, grad_mass_f_k, hessian_theta_f_k


def _finish(num, label, start, problems):
    elapsed = time.perf_counter() - start
    status = "FAIL" if problems else "PASS"
    print(f"{status} criterion {num}: {label} ({elapsed:.2f} s)")
    assert not problems, f"criterion {num}: " + "; ".join(problems)
    return elapsed


def _interior_config(rng, n, min_gap=0.05):
    w = rng.dirichlet(np.ones(n))
    gaps = min_gap + (TAU - n * min_gap) * w
    return AngleConfiguration(np.append(np.cumsum(gaps)[:-1], TAU))


def _open_config(rng, n, min_gap=0.2):
    # strictly inside (0, 2*pi) so every coordinate can be perturbed
    w = rng.dirichlet(np.ones(n))
    gaps = min_gap + (TAU - 0.2 - n * min_gap) * w
    return AngleConfiguration(0.1 + np.cumsum(gaps))


def _skewed_start(n):
    # deterministic interior start away from the regular polygon
    gaps = 1.0 + 0.3 * np.cos(1.0 + np.arange(n))
    gaps *= TAU / gaps.sum()
    return AngleConfiguration(np.append(np.cumsum(gaps)[:-1], TAU))


def test_criterion_01_newtonian_region_scan():
    start = time.perf_counter()
    problems = []
    cells = scan_region(range(3, 21), [1.0])
    holding = {c.n for c in cells if c.holds}
    if holding != {3, 4, 5, 6}:
        problems.append(f"condition holds for {sorted(holding)}")
    exact = 5.0 / 6.0 + 2.0 * math.sqrt(3.0) / 9.0
    defect = abs(g_value(6, 1.0) - exact)
    if defect > 1e-12:
        problems.append(f"g(6,1) off closed form by {defect:.3e}")
    if time.perf_counter() - start >= 1.0:
        problems.append("scan exceeded 1 s")
    _finish(1, "uniqueness region at alpha = 1 is n in 3..6", start, problems)


def test_criterion_02_equal_mass_minimizer_is_polygon():
    start = time.perf_counter()
    problems = []
    for n in range(3, 13):
        target = regular_ngon(n)
        init = _skewed_start(n)
        for alpha in (0.5, 1.0, 2.0):
            aux = AuxiliaryFunctional(alpha)
            m = MassVector(np.ones(n))
            res = minimize_f_k(aux, m, init)
            gap = np.max(np.abs(res.theta_m.angles - target.angles))
            if gap > 1e-9:
                problems.append(f"n={n} alpha={alpha} angle gap {gap:.3e}")
            rep = verify_cc(alpha, m, res.theta_m)
            worst = max(rep.tangential_residual, rep.radial_spread,
                        rep.center_norm)
            if not rep.is_cc or worst > 1e-9:
                problems.append(f"n={n} alpha={alpha} residual {worst:.3e}")
    if time.perf_counter() - start >= 5.0:
        problems.append("runtime exceeded 5 s")
    _finish(2, "equal masses minimize at the regular polygon", start, problems)


def test_criterion_03_one_heavy_mass_excluded():
    start = time.perf_counter()
    problems = []
    aux = AuxiliaryFunctional(1.0)
    for n in range(4, 9):
        m = MassVector(np.append(np.ones(n - 1), 2.0))
        verdict = exclusion_verdicts(aux, m)[0]
        if not verdict.excluded:
            problems.append(f"n={n} not excluded")
            continue
        if verdict.witness.is_reflection:
            problems.append(f"n={n} best witness is not cyclic")
        if not any(not g.is_reflection for g, _ in verdict.certificates):
            problems.append(f"n={n} no cyclic certificate")
        if verify_cc(1.0, m, verdict.theta_m).is_cc:
            problems.append(f"n={n} minimizer wrongly verifies")
    if time.perf_counter() - start >= 10.0:
        problems.append("runtime exceeded 10 s")
    _finish(3, "one heavier body excluded with cyclic witness", start, problems)


def test_criterion_04_two_heavy_odd_reflection_witness():
    start = time.perf_counter()
    problems = []
    aux = AuxiliaryFunctional(1.0)
    for raw in ([1.0, 1.0, 2.0, 1.0, 2.0],
                [1.0, 1.0, 2.0, 1.0, 1.0, 1.0, 2.0]):
        verdict = exclusion_verdicts(aux, MassVector(np.array(raw)))[0]
        if not verdict.excluded:
            problems.append(f"n={len(raw)} not excluded")
            continue
        if not any(g.is_reflection for g, _ in verdict.certificates):
            problems.append(f"n={len(raw)} no reflection certificate")
    if time.perf_counter() - start >= 10.0:
        problems.append("runtime exceeded 10 s")
    _finish(4, "two heavier bodies excluded with reflection witness",
            start, problems)


def test_criterion_05_derivatives_match_finite_differences():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(5150)
    count = 0
    for n in range(3, 9):
        for alpha in (0.5, 1.0, 2.0):
            aux = AuxiliaryFunctional(alpha)
            for _ in range(6):
                count += 1
                m = MassVector(rng.uniform(0.5, 2.0, n))
                cfg = _open_config(rng, n)
                t = cfg.angles

                def f_of_angles(x):
                    return f_k_value(aux, m, AngleConfiguration(x))

                def f_of_masses(y):
                    return f_k_value(aux, MassVector(y), cfg)

                g = grad_theta_f_k(aux, m, cfg)
                fd = finite_difference_gradient(f_of_angles, t)
                scale = max(1.0, np.max(np.abs(g)))
                if np.max(np.abs(g - fd)) / scale > 1e-6:
                    problems.append(f"angle gradient n={n} alpha={alpha}")
                gm = grad_mass_f_k(aux, m, cfg)
                fdm = finite_difference_gradient(f_of_masses, m.masses)
                if np.max(np.abs(gm - fdm)) / max(1.0, np.max(np.abs(gm))) > 1e-6:
                    problems.append(f"mass gradient n={n} alpha={alpha}")
                h = hessian_theta_f_k(aux, m, cfg)
                fdh = finite_difference_hessian(f_of_angles, t)
                if np.max(np.abs(h - fdh)) / max(1.0, np.max(np.abs(h))) > 1e-5:
                    problems.append(f"angle Hessian n={n} alpha={alpha}")
    if count < 100:
        problems.append(f"only {count} instances checked")
    _finish(5, "analytic derivatives match finite differences",
            start, problems)


def test_criterion_06_angle_hessian_semidefinite_rotation_kernel():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(606)
    for _ in range(50):
        n = int(rng.integers(3, 9))
        alpha = float(rng.choice([0.5, 1.0, 2.0]))
        aux = AuxiliaryFunctional(alpha)  # tight convexity constant
        m = MassVector(rng.uniform(0.5, 2.0, n))
        cfg = _interior_config(rng, n)
        h = hessian_theta_f_k(aux, m, cfg)
        eigs, vecs = np.linalg.eigh(h)
        norm = max(abs(eigs[0]), abs(eigs[-1]))
        if eigs[0] < -1e-10 * norm:
            problems.append(f"negative eigenvalue {eigs[0]:.3e} (n={n})")
        if eigs[1] < 1e-8 * norm:
            problems.append(f"kernel not one-dimensional (n={n})")
        cos = abs(vecs[:, 0] @ np.ones(n)) / math.sqrt(n)
        if cos < 1.0 - 1e-8:
            problems.append(f"kernel not the rotation direction (n={n})")
    _finish(6, "angle Hessian semidefinite with rotation kernel",
            start, problems)


def test_criterion_07_quadratic_mass_expansion_at_solutions():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(707)
    for n in range(3, 9):
        aux = AuxiliaryFunctional(1.0)
        m = MassVector(np.ones(n))
        cfg = regular_ngon(n)
        bound = 1e-10 * abs(f_k_value(aux, m, cfg))
        for _ in range(20):
            bump = rng.uniform(-0.4, 0.4, n)
            y = MassVector(m.masses + bump - bump.mean())
            residual = taylor_identity_check(aux, m, cfg, y)
            if residual > bound:
                problems.append(f"n={n} residual {residual:.3e}")
    _finish(7, "exact quadratic expansion in the masses", start, problems)


def test_criterion_08_circulant_spectrum_and_criterion_matrix():
    start = time.perf_counter()
    problems = []
    for n in range(3, 17):
        for alpha in (0.5, 1.0, 2.0):
            aux = AuxiliaryFunctional(alpha)
            spec = circulant_spectrum(aux, n)
            w = pair_weight_matrix(aux, regular_ngon(n))
            dense = np.linalg.eigvalsh(w)
            gap = np.max(np.abs(np.sort(spec) - dense))
            if gap > 1e-10:
                problems.append(f"spectrum gap {gap:.3e} (n={n}, alpha={alpha})")
            m = MassVector(np.ones(n))
            cm = ref.build_matrices(aux, m, regular_ngon(n))
            if cm.u_ratio <= cm.threshold:
                eigs = np.linalg.eigvalsh(cm.hcal)
                norm = max(abs(eigs[0]), abs(eigs[-1]))
                if eigs[0] < -1e-10 * norm:
                    problems.append(f"criterion matrix indefinite (n={n}, "
                                    f"alpha={alpha})")
                zeros = int(np.sum(np.abs(eigs) <= 1e-10 * norm))
                if zeros != 1:
                    problems.append(f"{zeros} zero eigenvalues (n={n}, "
                                    f"alpha={alpha})")
    _finish(8, "closed-form spectrum and semidefinite criterion matrix",
            start, problems)


def test_criterion_09_grid_oracle_agrees_with_newton():
    start = time.perf_counter()
    problems = []
    rng = np.random.default_rng(909)
    aux = AuxiliaryFunctional(1.0)
    for n in (3, 3, 3, 3, 4, 4, 4, 5, 5, 5):
        m = MassVector(rng.uniform(0.5, 2.0, n))
        coarse = brute_minimize(aux, m)
        res = minimize_f_k(aux, m)
        gap = np.max(np.abs(coarse.angles - res.theta_m.angles))
        if gap > 1e-4:
            problems.append(f"n={n} disagreement {gap:.3e}")
    if time.perf_counter() - start >= 60.0:
        problems.append("runtime exceeded 60 s")
    _finish(9, "grid oracle matches the damped Newton minimizer",
            start, problems)


def test_criterion_10_critical_exponent_brackets():
    start = time.perf_counter()
    problems = []
    for n, side in ((6, 1.0), (7, -1.0)):
        root = alpha_star(n)
        if side * (root - 1.0) <= 0.0:
            problems.append(f"alpha*({n}) = {root} on the wrong side of 1")
        residual = abs(g_value(n, root) - condition_threshold(root))
        if residual > 1e-12:
            problems.append(f"alpha*({n}) residual {residual:.3e}")
    alphas = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0]
    cells = scan_region(range(3, 21), alphas)
    table = {(c.n, c.alpha): c.g_value for c in cells}
    for a in alphas:
        col = [table[(n, a)] for n in range(3, 21)]
        if not all(x < y for x, y in zip(col, col[1:])):
            problems.append(f"g not increasing in n at alpha={a}")
    for n in range(3, 21):
        row = [table[(n, a)] for a in alphas]
        if not all(x < y for x, y in zip(row, row[1:])):
            problems.append(f"g not increasing in alpha at n={n}")
    _finish(10, "critical exponent straddles 1 between n = 6 and 7",
            start, problems)
