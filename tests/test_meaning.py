"""What the frozen minimize, exclude, verify, spectrum and survey outputs say.

The SHA-256 digests of ``frozen_outputs.py`` (and the survey's in
``test_scripts.py``) pin bytes: a digest says that a byte moved, not
whether a verdict moved with it. Every step of that table that runs
minimize, exclude or verify on masses that are not all equal names a
record of ``meaning_record.json``, and the check of that record replays
the table's steps that name it, in process, parses each output and
compares what it says with the record:

* exactly: ``converged``, ``is_cc``, ``excluded``, the group and swap
  ``excluded``, ``inconsistent`` and the certificate element lists;
* the witness exactly, or moved as ``WITNESS_MOVES`` lists, and then only
  to a certificate whose margin ties the recorded witness's;
* within the bounds below: ``f_value``, the angles and the verify
  residuals, which follow the minimizer's last bits.

Each printed margin is also recomputed from ``pair_weight_matrix`` at the
printed theta_m. The bounds are loose enough for the thread count of
OpenBLAS, which moves the last bits at n = 256, and tight enough that a
minimizer moved past the solve's stopping test fails them. The survey
script's table is checked against the record's rows the same way.

Every table entry with a step that runs spectrum is replayed too, and its
printed eigenvalues must number n, pair up bit for bit (lambda_k =
lambda_(n - k), as for any symmetric circulant) and lie within the bound
``spectral.circulant_spectrum`` derives of a 40-digit cosine sum of the
exact first row: every eigenvalue for n <= 16, sixteen or more fixed ones
above. These need no record.

The record holds the outputs as they were while the Newton loop started at
the regular n-gon, and the ``shift-*`` ones as they were first taken, from
the mass-aware start, all on two OpenBLAS threads. To check a new step,
name its record in the table and run ``PYTHONPATH=src:tests python
tests/test_meaning.py``: it appends each record the table names and the
file lacks, from this package's outputs, and leaves every byte already
there. A change that moves what an output says keeps the record and lists
the move here, as ``WITNESS_MOVES`` does.
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
from cocircular import cli
from frozen_outputs import FROZEN, PIPE, replay, run_in_process
from reference_potential import exact_eigenvalue, exact_row, spectrum_bound

RECORD = Path(__file__).resolve().with_name("meaning_record.json")
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


def _start(steps, i):
    """The index of the step whose payload step i runs on, through pipes."""
    while steps[i].stdin is PIPE:
        i -= 1
    return i


def _solves():
    """Record name -> (entry, step index) of every table step that runs a
    solve on masses that are not all equal; None names the unnamed ones."""
    out = {}
    for name, entry in FROZEN.items():
        for i, step in enumerate(entry.steps):
            if step.argv[0] not in ("minimize", "exclude", "verify"):
                continue
            if len(set(json.loads(entry.steps[_start(entry.steps, i)].stdin)["masses"])) > 1:
                out.setdefault(step.record, []).append((name, i))
    return out


SOLVES = _solves()


def _outputs(record, cwd):
    """(command, input payload, parsed output) of each table step naming the
    record, each replayed from the payload it runs on."""
    for name, i in SOLVES[record]:
        steps = FROZEN[name].steps
        first = _start(steps, i)
        text = replay(steps[first:i + 1], run_in_process, cwd)[-1]
        yield steps[i].argv[0], json.loads(steps[first].stdin), json.loads(text)


def _key(witness, n):
    """A witness as the record holds it: e = h + n*l of the scans' order, or the pair."""
    return witness["pair"] if witness["kind"] == "swap" else witness["h"] + n * witness["l"]


def _certificates(verdict, n):
    return [_key(c["witness"], n) for c in verdict["certificates"]]


def meaning(outputs):
    """What the (command, payload, output) steps of one record say, as the
    record holds it. minimize and exclude run the same solve, so the record
    keeps one f and one theta_m for both."""
    rec = {}
    for command, _, o in outputs:
        if command == "minimize":
            rec.update(f_value=o["f_value"], theta_m=o["angles"], converged=o["converged"])
        elif command == "exclude":
            n = len(o["masses"])
            rec.update(f_value=o["f_value"], theta_m=o["theta_m"], excluded=o["excluded"],
                       inconsistent=o["swap"]["inconsistent"])
            for kind in ("group", "swap"):
                rec[kind] = {"excluded": o[kind]["excluded"],
                             "witness": o[kind]["witness"] and _key(o[kind]["witness"], n),
                             "certificates": _certificates(o[kind], n)}
        else:
            rec["verify"] = {key: o[key] for key in VERIFIED}
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


@pytest.mark.parametrize("record", [record for record in SOLVES if record])
def test_outputs_mean_what_they_meant(record, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    then = _record()["problems"][record]
    for command, payload, out in _outputs(record, tmp_path):
        if command == "minimize":
            assert out["converged"] is then["converged"] is True
            assert _close(out["f_value"], then["f_value"], F_BOUND)
            _check_angles(out["angles"], then["theta_m"])
        elif command == "exclude":
            n = len(payload["masses"])
            assert out["excluded"] is then["excluded"]
            assert out["swap"]["inconsistent"] is then["inconsistent"]
            for kind in ("group", "swap"):
                assert out[kind]["excluded"] is then[kind]["excluded"]
                assert _certificates(out[kind], n) == then[kind]["certificates"]
                _check_witness(record, kind, out[kind], then[kind], n)
            assert _close(out["f_value"], then["f_value"], F_BOUND)
            _check_angles(out["theta_m"], then["theta_m"])
            _check_margins(payload["alpha"], payload["masses"], out)
        else:
            assert out["is_cc"] is then["verify"]["is_cc"]
            for key in VERIFIED[1:]:
                assert _close(out[key], then["verify"][key], VERIFY_BOUND), key


@pytest.mark.parametrize("name", [name for name, entry in FROZEN.items()
                                  if any(step.argv[0] == "spectrum" for step in entry.steps)])
def test_spectrum_means_the_eigenvalues_of_w(name, tmp_path):
    steps = FROZEN[name].steps
    for step, text in zip(steps, replay(steps, run_in_process, tmp_path)):
        if step.argv[0] != "spectrum":
            continue
        argv = step.argv
        n, alpha = int(argv[argv.index("--n") + 1]), float(argv[argv.index("--alpha") + 1])
        aux = AuxiliaryFunctional(alpha)
        spec = json.loads(text)
        assert len(spec) == n
        assert spec[1:] == spec[:0:-1]
        row = exact_row(aux, n)
        bound = spectrum_bound(n, alpha, float(sum(row)))
        for i in range(n) if n <= 16 else sorted({1, n // 2, *range(0, n, n // 16)}):
            assert abs(spec[i] - float(exact_eigenvalue(row, i))) <= bound, i


def test_every_unequal_mass_solve_names_a_record():
    problems = _record()["problems"]
    unchecked = [f"{name} step {i}" for record, steps in SOLVES.items()
                 if record not in problems for name, i in steps]
    assert not unchecked, f"steps with no record: {unchecked}"
    assert set(problems) <= set(SOLVES), "a record that no table step names"


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


def _append_missing(path, cwd):
    """Append to the record at path each record the table names and it lacks,
    from this package's outputs, one a line; every byte already there stays."""
    text = path.read_text(encoding="utf-8")
    have = json.loads(text)["problems"]
    head, survey = text.split('\n},\n"survey":')
    lines = [f"{_compact(r)}:{_compact(meaning(_outputs(r, cwd)))}"
             for r in SOLVES if r and r not in have]
    path.write_text(",\n".join([head, *lines]) + '\n},\n"survey":' + survey, encoding="utf-8")


def test_the_writer_keeps_every_record(tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "main", lambda argv: pytest.fail(f"the writer ran {argv}"))
    copy = tmp_path / RECORD.name
    copy.write_bytes(RECORD.read_bytes())
    _append_missing(copy, tmp_path)
    assert copy.read_bytes() == RECORD.read_bytes()


def _compact(value):
    return json.dumps(value, separators=(",", ":"))


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        _append_missing(RECORD, Path(tmp))
