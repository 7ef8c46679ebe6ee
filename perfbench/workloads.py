"""Workload definitions: seeded inputs, CLI steps and output checks.

Every workload is a closed loop run by one client: one op at a time, each
issued after the previous one returns. An op is one or more in-process
calls of ``cocircular.cli.main(argv)``; a step's stdin may be the stdout of
the step before it. The seed fixes a set of inputs (``INPUT_SETS``) that
the client makes whole passes over; the program only ever sees the generated argv
and stdin, never the seed.

Each step has a *kind*. Every kind maps to one of two latency slots,
``primary`` and ``secondary``, which are the end-to-end latency metrics
that ``BENCHMARK.json`` names; see ``SLOTS``.

Why these workloads:

* ``solve`` is the Newton hot path at n = 256, the size where value,
  gradient and Hessian each rebuild the chord matrix and BLAS threading
  matters. It chains ``minimize`` into ``verify`` (the README's flow) and
  never reaches ``symmetry`` or ``scanner``.
* ``certify`` is the small-n, overhead-bound use of the same
  ``minimizer``/``potential`` code, plus the certificate scans. Families
  with all-distinct masses (graded, uniform) drive the O(n^4) swap scan;
  one-heavy and two-heavy families skip it, so their two wide-spread
  Newton solves dominate. n covers 8..40 and so includes 13 and 26, where
  the minimizer's unpinned default start raises ``DomainError`` today.
  Those ops are counted as failed, not steered around; they are the only
  ops of any workload allowed to fail (``Op.known_failure``).
* ``ngon`` is the equal-mass polygon questions. ``scan`` evaluates g over a
  grid through the scanner's thread pool; ``alpha-star`` evaluates the same
  g one alpha at a time in a bisection; ``spectrum`` builds one row of W at
  the regular polygon. It never reaches ``minimizer`` or ``symmetry``, and a
  change that vectorizes g over the alpha grid must speed up ``scan``
  without slowing ``alpha-star``.
"""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np
from cocircular import (AngleConfiguration, AuxiliaryFunctional, GroupElement,
                        MassVector, act_on_masses, condition_threshold, g_value,
                        grad_theta_f_k, pair_weight_matrix, regular_ngon, verify_cc)

ALPHAS = (0.5, 1.0, 3.0)

# Latency slot of every step kind. Kinds missing here (``spectrum``) only
# count towards ops_per_kref and the printed per-command table.
SLOTS = {
    "solve": {"minimize": "primary", "verify": "secondary"},
    "certify": {"exclude.distinct": "primary", "exclude.few": "secondary"},
    "ngon": {"scan": "primary", "alpha-star": "secondary"},
}

PREV = object()  # stdin marker: feed the previous step's stdout


@dataclass
class Step:
    kind: str
    argv: list
    stdin: object = None  # None, a string, or PREV


@dataclass
class Op:
    steps: list
    meta: dict = field(default_factory=dict)
    # Why the op may exit 2 (a domain error) today. Such an exit counts as a
    # failed op; any other non-zero exit makes the run incorrect.
    known_failure: str | None = None


def _problem(alpha: float, masses: np.ndarray) -> str:
    return json.dumps({"alpha": alpha, "masses": masses.tolist()})


def _stratified(rng: np.random.Generator, k: int) -> np.ndarray:
    """k shuffled points in [0, 1), one in each of k equal strata.

    Stratified draws give every seed the same spread of an input property,
    so the seed moves single inputs and not the composition of the set.
    """
    return (rng.permutation(k) + rng.uniform(size=k)) / k


def solve_set(seed: int) -> list[Op]:
    """24 problems, 8 of each alpha."""
    rng = np.random.default_rng(seed)
    ops = []
    for _ in range(8):
        for alpha in rng.permutation(ALPHAS):
            alpha = float(alpha)
            masses = rng.uniform(0.5, 2.0, 256)
            ops.append(Op([Step("minimize", ["minimize", "--input", "-"],
                                _problem(alpha, masses)),
                           Step("verify", ["verify", "--input", "-"], PREV)],
                          {"alpha": alpha, "masses": masses}))
    return ops


def certify_masses(family: str, n: int, ratio: float, rng: np.random.Generator):
    """Mass families of scripts/exclusion_survey.py plus uniform U(0.5, 2)."""
    if family == "uniform":
        return rng.uniform(0.5, 2.0, n)
    if family == "graded":
        return 1.0 + np.arange(n) / n
    m = np.ones(n)
    m[-1] = ratio
    if family == "two-heavy":
        m[2] = ratio
    return m


# The minimizer's unpinned default start leaves (0, 2 pi] at these n.
KNOWN_FAILURES = {n: "default start rounds past 2 pi" for n in (13, 26)}


def certify_set(seed: int) -> list[Op]:
    """Every (n, family) cell, the few-distinct ones twice: 164 problems in seeded order.

    Within a family every three cells of consecutive n take the three
    alphas in seeded order, so each alpha meets every part of the n range
    (n sets most of the cost, and alpha = 1 is the cheapest on all-distinct
    masses); the heavy/light ratio (log-uniform in 2..1e4) is stratified
    across the cells of each alpha. The one-heavy and two-heavy cells are drawn twice, with two
    ratios, because their cost is heavy-tailed in the ratio and their slot's
    p90 would otherwise rest on a handful of draws.
    """
    rng = np.random.default_rng(seed)
    cells = []
    for family, draws in (("one-heavy", 2), ("two-heavy", 2), ("graded", 1), ("uniform", 1)):
        ns = [n for n in range(8, 41) if family != "two-heavy" or n % 2 == 1] * draws
        blocks = -(-len(ns) // len(ALPHAS))
        alphas = np.concatenate([rng.permutation(len(ALPHAS)) for _ in range(blocks)])[:len(ns)]
        ratios = np.empty(len(ns))
        for a in range(len(ALPHAS)):
            group = alphas == a
            ratios[group] = np.exp(math.log(2.0) + math.log(5e3) * _stratified(rng, group.sum()))
        cells += [(n, family, float(r), ALPHAS[a]) for n, r, a in zip(ns, ratios, alphas)]
    ops = []
    for i in rng.permutation(len(cells)):
        n, family, ratio, alpha = cells[i]
        masses = certify_masses(family, n, ratio, rng)
        kind = "exclude.distinct" if family in ("graded", "uniform") else "exclude.few"
        ops.append(Op([Step(kind, ["exclude", "--input", "-"], _problem(alpha, masses))],
                      {"alpha": alpha, "masses": masses}, KNOWN_FAILURES.get(n)))
    return ops


def ngon_set(seed: int) -> list[Op]:
    """24 rounds of 1 scan : 4 alpha-star : 1 spectrum, one CLI call per op."""
    rounds = 24
    rng = np.random.default_rng(seed)
    star_n = 3 + (998 * _stratified(rng, 4 * rounds)).astype(int)
    spec_n = 3 + (510 * _stratified(rng, rounds)).astype(int)
    spec_alpha = 0.1 + 2.9 * _stratified(rng, rounds)
    ops = []
    for r in range(rounds):
        alphas = [repr(float(a)) for a in rng.uniform(0.1, 3.0, 12)]
        ops.append(Op([Step("scan", ["scan", "--n-min", "3", "--n-max", "300",
                                     "--alpha", *alphas])],
                      {"n_min": 3, "n_max": 300, "alphas": [float(a) for a in alphas]}))
        for n in star_n[4 * r:4 * r + 4]:
            ops.append(Op([Step("alpha-star", ["alpha-star", "--n", str(n)])], {"n": int(n)}))
        n, alpha = int(spec_n[r]), float(spec_alpha[r])
        ops.append(Op([Step("spectrum", ["spectrum", "--n", str(n), "--alpha", repr(alpha)])],
                      {"n": n, "alpha": alpha}))
    return ops


INPUT_SETS = {"solve": solve_set, "certify": certify_set, "ngon": ngon_set}

# Seconds one untraced pass over a set takes on a 2-core 2.1 GHz x86-64
# host (its median; the host's speed drifts by 20-50% around it). A run
# makes round(seconds / PASS_S) whole passes, so its op count, and with it
# the count of certify's known failures (10 a pass), is fixed by --seconds
# and does not depend on the seed or on the host's speed.
PASS_S = {"solve": 3.0, "certify": 7.5, "ngon": 7.5}


# ---------------------------------------------------------------------------
# Output checks. They use the package's public API and run after the timed
# ops. Each returns None when the output is right, else a reason. This
# module is imported after run.py has put the checkout's src on sys.path.

def _close(a: float, b: float, rtol: float) -> bool:
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def check_minimize(meta, out: str):
    d = json.loads(out)
    if d["converged"] is not True:
        return "minimize did not report convergence"
    if d["masses"] != meta["masses"].tolist() or d["alpha"] != meta["alpha"]:
        return "minimize did not echo its input"
    aux = AuxiliaryFunctional(meta["alpha"])
    grad = grad_theta_f_k(aux, MassVector(np.array(d["masses"])),
                          AngleConfiguration(np.array(d["angles"])))
    gnorm = float(np.linalg.norm(grad[:-1]))
    if not gnorm <= 1e-11 * max(1.0, abs(d["f_value"])):
        return f"reduced gradient {gnorm:.3e} above the tolerance"
    return None


def check_verify(meta, out: str, minimize_out: str):
    d = json.loads(out)
    src = json.loads(minimize_out)
    if d["angles"] != src["angles"] or d["masses"] != src["masses"]:
        return "verify did not echo the minimizer's configuration"
    rep = verify_cc(meta["alpha"], MassVector(np.array(d["masses"])),
                    AngleConfiguration(np.array(d["angles"])))
    for name in ("tangential_residual", "radial_spread", "center_norm", "lambda_tilde"):
        if not _close(d[name], getattr(rep, name), 1e-9):
            return f"verify {name} {d[name]!r} differs from verify_cc"
    if d["is_cc"] != rep.is_cc:
        return "verify is_cc differs from verify_cc"
    return None


def check_exclude(meta, out: str):
    d = json.loads(out)
    m = MassVector(meta["masses"])
    if d["masses"] != meta["masses"].tolist():
        return "exclude did not echo its masses"
    w = pair_weight_matrix(AuxiliaryFunctional(meta["alpha"]),
                           AngleConfiguration(np.array(d["theta_m"])))
    for cert in d["group"]["certificates"]:
        g = GroupElement(cert["witness"]["h"], cert["witness"]["l"], m.n)
        diff = act_on_masses(g, m).masses - m.masses
        q = 0.5 * float(diff @ w @ diff)
        if not (q < 0.0 and _close(-q, cert["margin"], 1e-9)):
            return f"group certificate {cert['witness']} has q = {q!r}"
    mm = m.masses
    for cert in d["swap"]["certificates"]:
        j, k = cert["witness"]["pair"]
        if not _close((mm[k] - mm[j]) ** 2 * w[j, k], cert["margin"], 1e-9):
            return f"swap certificate {cert['witness']} margin differs"
    for part in ("group", "swap"):
        v = d[part]
        if v["excluded"] != bool(v["certificates"]):
            return f"{part} verdict disagrees with its certificates"
        if v["certificates"] and v["margin"] != max(c["margin"] for c in v["certificates"]):
            return f"{part} margin is not the largest certificate margin"
    if d["excluded"] != (d["group"]["excluded"] or d["swap"]["excluded"]):
        return "excluded is not group OR swap"
    return None


def check_scan(meta, out: str, rng: np.random.Generator, samples: int = 16):
    rows = list(csv.reader(io.StringIO(out)))
    if rows[0] != ["n", "alpha", "g_value", "threshold", "holds"]:
        return "scan CSV header changed"
    alphas = sorted(set(meta["alphas"]))
    want = [(n, a) for n in range(meta["n_min"], meta["n_max"] + 1) for a in alphas]
    body = rows[1:]
    if [(int(r[0]), float(r[1])) for r in body] != want:
        return "scan cells are missing or out of order"
    for r in body:
        if (r[4] == "true") != (float(r[2]) <= float(r[3])):
            return f"scan holds flag wrong at n={r[0]} alpha={r[1]}"
    for i in rng.choice(len(body), size=min(samples, len(body)), replace=False):
        n, a, g, thr = int(body[i][0]), float(body[i][1]), float(body[i][2]), float(body[i][3])
        if not (_close(g, g_value(n, a), 1e-12) and _close(thr, condition_threshold(a), 1e-15)):
            return f"scan cell n={n} alpha={a!r} differs from g_value"
    return None


def check_alpha_star(meta, out: str):
    d = json.loads(out)
    if d["n"] != meta["n"] or not d["residual"] <= d["tolerance"]:
        return f"alpha-star residual {d['residual']!r} above {d['tolerance']!r}"
    a = d["alpha_star"]
    if not abs(g_value(meta["n"], a) - condition_threshold(a)) <= d["tolerance"]:
        return "alpha-star root does not meet g = 1 + alpha/4"
    return None


def check_spectrum(meta, out: str):
    eig = json.loads(out)
    if len(eig) != meta["n"]:
        return "spectrum has the wrong length"
    row = pair_weight_matrix(AuxiliaryFunctional(meta["alpha"]), regular_ngon(meta["n"]))[0]
    if not _close(eig[0], float(np.sum(row)), 1e-12):
        return "eigenvalue 0 differs from the row sum of W"
    return None


def check_op(op: Op, outs: list, rng: np.random.Generator):
    """Check every step's stdout of one op; ``outs`` is in step order."""
    kind = op.steps[0].kind
    if kind == "minimize":
        return check_minimize(op.meta, outs[0]) or check_verify(op.meta, outs[1], outs[0])
    if kind.startswith("exclude"):
        return check_exclude(op.meta, outs[0])
    if kind == "scan":
        return check_scan(op.meta, outs[0], rng)
    if kind == "alpha-star":
        return check_alpha_star(op.meta, outs[0])
    return check_spectrum(op.meta, outs[0])
