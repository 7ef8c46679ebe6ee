"""What the frozen minimize, exclude, verify and survey outputs say.

The SHA-256 digests of ``tests/frozen_outputs.py`` (and the survey's in
``test_scripts.py``) pin bytes: a digest says that a byte moved, not
whether a verdict moved with it. These checks cover every digest-pinned
output whose Newton solve runs on unequal masses, and the [1, 1, 1, 1, 2]
verdict of ``test_symmetry.py``.
Each parses the output and compares what it says with
``meaning_record.json``:

* exactly: ``converged``, ``is_cc``, ``excluded``, the group and swap
  ``excluded``, ``inconsistent`` and the certificate element lists;
* the witness exactly, or moved as ``WITNESS_MOVES`` lists, and then only
  to a certificate whose margin ties the recorded witness's;
* within the bounds below: ``f_value``, the angles and the verify
  residuals, which follow the minimizer's last bits.

Each printed margin is also recomputed from ``pair_weight_matrix`` at the
printed theta_m. The bounds are loose enough for the thread count of
OpenBLAS, which moves the last bits at n = 256, and tight enough that a
minimizer moved past the solve's stopping test fails them.

The record holds these outputs as they were while the Newton loop started
at the regular n-gon, taken on two OpenBLAS threads by
``PYTHONPATH=src:tests python tests/test_meaning.py``, which rewrites it.
A change that moves what an output says keeps the record and lists the
move here, as ``WITNESS_MOVES`` does.
"""

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import cocircular
from cocircular import (TAU, AngleConfiguration, AuxiliaryFunctional, GroupElement,
                        MassVector, act_on_masses, pair_weight_matrix)
from cocircular.cli import main
from conftest import certify_masses

RECORD = Path(__file__).with_name("meaning_record.json")
SURVEY = Path(__file__).resolve().parent.parent / "scripts" / "exclusion_survey.py"
SURVEY_ARGS = ["--n-min", "4", "--n-max", "8"]

# Largest change of any angle, in radians. The solve stops at a reduced
# gradient of 1e-11 |f|, which leaves theta_m up to that over the reduced
# Hessian's smallest eigenvalue from the exact minimizer; the widest move
# measured from another start is 2.8e-9 (two-heavy, n = 40, alpha = 0.5).
THETA_BOUND = 1e-8
# Relative change of f: second order in the angles' move, so rounding in
# the pair sums is what is left (widest measured 4.4e-16).
F_BOUND = 1e-12
# Relative change of a verify residual or lambda_tilde: first order in the
# angles' move, scaled by the pair forces' derivatives. The tangential
# residual at n = 256, alpha = 3 cancels terms of about 1e5 down to 0.07,
# and moved by 3.8e-6 of itself when theta_m moved by 9e-16.
VERIFY_BOUND = 1e-4
# A printed margin against the q of W at the printed theta_m: the stacked
# gemv and this sum round differently, by at most n u (|d|^T |W| |d|) / 2.
GEMV_ULPS = 4.0
# Two margins tie when they are equal in exact arithmetic, by a symmetry of
# the masses, and differ by rounding alone: 54 ulp (1.2e-14 of the margin)
# at most as measured, at n = 256.
TIE_BOUND = 1e-12

VERIFIED = ("is_cc", "tangential_residual", "radial_spread", "center_norm", "lambda_tilde")

# (witness as recorded, witness now) of each output whose witness moved to a
# tied certificate when the default start became ``_mass_start``: a group
# witness is e = h + n*l, a swap witness its pair. The ties are the masses'
# mirror symmetry (one-heavy, two-heavy) or [1, 1, 2]'s stabilizer.
WITNESS_MOVES = {
    ("112", "group"): (1, 2),
    ("11112", "group"): (4, 1),
    ("one-heavy-256-0.5", "group"): (1, 255),
    ("one-heavy-256-0.5", "swap"): ([254, 255], [0, 255]),
    ("one-heavy-26-0.5", "swap"): ([0, 25], [24, 25]),
    ("one-heavy-40-0.5", "group"): (1, 39),
    ("two-heavy-9-0.5", "group"): (8, 1),
    ("two-heavy-9-0.5", "swap"): ([5, 8], [2, 5]),
    ("two-heavy-40-0.5", "group"): (39, 1),
    ("one-heavy-256-1.0", "group"): (1, 255),
    ("one-heavy-256-1.0", "swap"): ([254, 255], [0, 255]),
    ("one-heavy-9-1.0", "group"): (1, 8),
    ("one-heavy-40-1.0", "swap"): ([38, 39], [0, 39]),
    ("two-heavy-9-1.0", "swap"): ([5, 8], [2, 5]),
    ("two-heavy-13-1.0", "group"): (1, 12),
    ("two-heavy-13-1.0", "swap"): ([5, 12], [2, 9]),
    ("two-heavy-40-1.0", "swap"): ([2, 36], [5, 39]),
    ("one-heavy-256-3.0", "group"): (255, 1),
    ("one-heavy-256-3.0", "swap"): ([0, 255], [254, 255]),
    ("one-heavy-9-3.0", "swap"): ([7, 8], [0, 8]),
    ("one-heavy-13-3.0", "group"): (12, 1),
    ("one-heavy-40-3.0", "group"): (1, 39),
    ("one-heavy-40-3.0", "swap"): ([38, 39], [0, 39]),
    ("two-heavy-13-3.0", "group"): (12, 1),
    ("one-heavy n=4", "survey"): ("cyc(h=3)", "cyc(h=1)"),
    ("one-heavy n=5", "survey"): ("cyc(h=4)", "cyc(h=1)"),
    ("two-heavy n=5", "survey"): ("cyc(h=1)", "cyc(h=4)"),
    ("one-heavy n=7", "survey"): ("cyc(h=6)", "cyc(h=1)"),
    ("one-heavy n=8", "survey"): ("cyc(h=1)", "cyc(h=7)"),
}


def problems():
    """Name -> (alpha, masses, commands) of every recorded input."""
    out = {
        "112": (1.0, [1.0, 1.0, 2.0], ("minimize", "exclude")),
        "11112": (1.0, [1.0, 1.0, 1.0, 1.0, 2.0], ("exclude",)),
        "uniform-64-0.5": (0.5, certify_masses("uniform", 64).tolist(), ("minimize",)),
    }
    for alpha in (0.5, 1.0, 3.0):
        out[f"uniform-256-{alpha}"] = (alpha, certify_masses("uniform", 256).tolist(),
                                       ("minimize", "exclude", "verify"))
        out[f"one-heavy-256-{alpha}"] = (
            alpha, certify_masses("one-heavy", 256, ratio=300.0).tolist(), ("exclude",))
        for family in ("one-heavy", "two-heavy", "graded", "uniform"):
            for n in (9, 13, 26, 40):
                out[f"{family}-{n}-{alpha}"] = (
                    alpha, certify_masses(family, n).tolist(), ("exclude",))
    return out


PROBLEMS = problems()


def _run(command, payload, tmp):
    """The parsed output of ``cocircular command`` on payload, through files in tmp."""
    src, dst = Path(tmp) / "in.json", Path(tmp) / "out.json"
    src.write_text(json.dumps(payload), encoding="utf-8")
    assert main([command, "--input", str(src), "--output", str(dst)]) == 0
    return json.loads(dst.read_text(encoding="utf-8"))


def outputs(name, tmp):
    """Command -> parsed output of each command recorded for the input name."""
    alpha, masses, commands = PROBLEMS[name]
    payload = {"alpha": alpha, "masses": masses}
    out = {}
    for command in commands:
        if command == "verify":  # on the minimize output, as CI pipes it
            payload = {**payload, "angles": out["minimize"]["angles"]}
        out[command] = _run(command, payload, tmp)
    return out


def _key(witness, n):
    """A witness as the record holds it: e = h + n*l of the scans' order, or the pair."""
    return witness["pair"] if witness["kind"] == "swap" else witness["h"] + n * witness["l"]


def _certificates(verdict, n):
    return [_key(c["witness"], n) for c in verdict["certificates"]]


def meaning(out):
    """What the outputs of one input say, as the record holds it.

    minimize and exclude run the same solve, so the record keeps one f and
    one theta_m for both.
    """
    rec = {}
    for command in ("minimize", "exclude"):
        if command in out:
            o = out[command]
            rec["f_value"] = o["f_value"]
            rec["theta_m"] = o["angles" if command == "minimize" else "theta_m"]
    if "minimize" in out:
        rec["converged"] = out["minimize"]["converged"]
    if "exclude" in out:
        e = out["exclude"]
        n = len(e["masses"])
        rec.update(excluded=e["excluded"], inconsistent=e["swap"]["inconsistent"])
        for kind in ("group", "swap"):
            v = e[kind]
            rec[kind] = {"excluded": v["excluded"],
                         "witness": v["witness"] and _key(v["witness"], n),
                         "certificates": _certificates(v, n)}
    if "verify" in out:
        rec["verify"] = {key: out["verify"][key] for key in VERIFIED}
    return rec


def survey_rows(text):
    """The survey table as (label, excluded, witness, margin, spread, is_cc) rows."""
    rows = []
    for line in text.splitlines()[2:]:
        if line.startswith("  warning: "):
            rows.append([line])
            continue
        label, rest = line[:16].rstrip(), line[16:].split()
        rows.append([label, rest[0], rest[1], float(rest[2]), float(rest[3]), rest[4]])
    return rows


def _survey():
    src = str(Path(cocircular.__file__).resolve().parent.parent)
    out = subprocess.run([sys.executable, str(SURVEY), *SURVEY_ARGS], capture_output=True,
                         text=True, timeout=120, env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    return out.stdout


def _record():
    return json.loads(RECORD.read_text(encoding="utf-8"))


def _close(now, then, bound):
    return abs(now - then) <= bound * abs(then)


def _check_angles(now, then):
    assert now[-1] == TAU
    assert np.all(np.diff(now) > 0.0)
    assert np.max(np.abs(np.subtract(now, then))) <= THETA_BOUND


def _check_margins(alpha, masses, e):
    """Each printed margin is -q of W at the printed theta_m, to the gemv's rounding."""
    w = pair_weight_matrix(AuxiliaryFunctional(alpha), AngleConfiguration(e["theta_m"]))
    m = MassVector(np.array(masses))
    u = np.finfo(float).eps / 2
    for cert in e["group"]["certificates"]:
        g = GroupElement(cert["witness"]["h"], cert["witness"]["l"], m.n)
        d = act_on_masses(g, m).masses - m.masses
        q = 0.5 * float(d @ w @ d)
        scale = 0.5 * float(np.abs(d) @ np.abs(w) @ np.abs(d))
        assert abs(cert["margin"] + q) <= GEMV_ULPS * m.n * u * scale
    for cert in e["swap"]["certificates"]:
        j, k = cert["witness"]["pair"]
        margin = (masses[k] - masses[j]) ** 2 * w[j, k]
        assert _close(cert["margin"], margin, 4 * u)


def _check_witness(name, kind, verdict, then, n):
    """The recorded witness, or a listed move to a certificate whose margin ties it."""
    witness = verdict["witness"] and _key(verdict["witness"], n)
    if witness == then["witness"]:
        return
    assert WITNESS_MOVES.get((name, kind)) == (then["witness"], witness)
    margins = {json.dumps(_key(c["witness"], n)): c["margin"] for c in verdict["certificates"]}
    tied = margins[json.dumps(then["witness"])]
    assert _close(tied, verdict["margin"], TIE_BOUND)


@pytest.mark.parametrize("name", list(PROBLEMS))
def test_outputs_mean_what_they_meant(name, tmp_path):
    alpha, masses, _ = PROBLEMS[name]
    out = outputs(name, tmp_path)
    then = _record()["problems"][name]
    if "minimize" in out:
        m = out["minimize"]
        assert m["converged"] is then["converged"] is True
        assert _close(m["f_value"], then["f_value"], F_BOUND)
        _check_angles(m["angles"], then["theta_m"])
    if "exclude" in out:
        e, n = out["exclude"], len(masses)
        assert e["excluded"] is then["excluded"]
        assert e["swap"]["inconsistent"] is then["inconsistent"]
        for kind in ("group", "swap"):
            assert e[kind]["excluded"] is then[kind]["excluded"]
            assert _certificates(e[kind], n) == then[kind]["certificates"]
            _check_witness(name, kind, e[kind], then[kind], n)
        assert _close(e["f_value"], then["f_value"], F_BOUND)
        _check_angles(e["theta_m"], then["theta_m"])
        _check_margins(alpha, masses, e)
    if "verify" in out:
        v, was = out["verify"], then["verify"]
        assert v["is_cc"] is was["is_cc"]
        for key in VERIFIED[1:]:
            assert _close(v[key], was[key], VERIFY_BOUND), key


def test_survey_means_what_it_meant():
    now, then = survey_rows(_survey()), _record()["survey"]
    assert [row[:2] + row[5:] for row in now] == [row[:2] + row[5:] for row in then]
    for row, was in zip(now, then):
        if len(row) == 1:  # a warning line
            continue
        label, _, witness, margin, spread, _ = row
        if witness != was[2]:
            assert WITNESS_MOVES.get((label, "survey")) == (was[2], witness)
        # each printed margin and spread is within half a printed digit of its value
        assert abs(margin - was[3]) <= 1e-6 + TIE_BOUND * abs(was[3])
        assert abs(spread - was[4]) <= 1e-3 * abs(was[4])


def _write_record():
    """Rewrite the record from this package's outputs, one input a line."""
    with tempfile.TemporaryDirectory() as tmp:
        lines = [f"{_compact(name)}:{_compact(meaning(outputs(name, tmp)))}"
                 for name in PROBLEMS]
    RECORD.write_text('{"problems":{\n' + ",\n".join(lines) + '\n},\n"survey":'
                      + _compact(survey_rows(_survey())) + "}\n", encoding="utf-8")


def _compact(value):
    return json.dumps(value, separators=(",", ":"))


if __name__ == "__main__":
    _write_record()
