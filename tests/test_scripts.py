import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import cocircular
from cocircular import cli, scanner
from cocircular.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, "-W", "error", str(SCRIPTS / name), *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_region_map_csv_matches_cli_scan(tmp_path, capsys):
    csv = tmp_path / "region.csv"
    out = _run_script("region_map.py", "--n-min", "3", "--n-max", "8",
                      "--alpha-steps", "5", "--csv", str(csv))
    assert out.returncode == 0, out.stderr
    rows = csv.read_text(encoding="utf-8")
    alphas = sorted({line.split(",")[1] for line in rows.splitlines()[1:]},
                    key=float)
    assert len(alphas) == 5
    assert main(["scan", "--n-min", "3", "--n-max", "8", "--alpha", *alphas]) == 0
    assert capsys.readouterr().out == rows


# region_map.py's table as it printed when each n's edge came from a scan
# of every cell: n = 8, 9 hold up to the first alpha, n >= 10 never hold
REGION_MAP_TABLE = """\
  n   alpha_star    g(n,a*)  holds up to
  3  12.79269752   4.198174        2.000
  4   3.31972236   1.829931        2.000
  5   1.70745281   1.426863        1.500
  6   1.11101312   1.277753        1.000
  7   0.81064311   1.202661        0.750
  8   0.63260716   1.158152        0.500
  9   0.51590892   1.128977        0.500
 10   0.43400480   1.108501        never
 11   0.37360588   1.093401        never
 12   0.32736576   1.081841        never
 13   0.29091119   1.072728        never
 14   0.26148487   1.065371        never
"""


def test_region_map_table_frozen():
    out = _run_script("region_map.py", "--n-min", "3", "--n-max", "14", "--alpha-min", "0.5",
                      "--alpha-max", "2.0", "--alpha-steps", "7")
    assert out.returncode == 0, out.stderr
    assert out.stdout == REGION_MAP_TABLE


def test_region_map_evaluates_the_grid_once(tmp_path, monkeypatch, capsys):
    # the table and the CSV come from one grid, and each root's g from the
    # bisection that found the root
    calls = {"_grid": 0, "g_value": 0}

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        return wrapper

    grid, g_value = counted("_grid", scanner._grid), counted("g_value", scanner.g_value)
    for module in (scanner, cli):
        monkeypatch.setattr(module, "_grid", grid)
    for module in (scanner, cocircular):
        monkeypatch.setattr(module, "g_value", g_value)
    csv = tmp_path / "region.csv"
    monkeypatch.setattr(sys, "argv", [
        "region_map.py", "--n-min", "3", "--n-max", "14", "--alpha-min", "0.5",
        "--alpha-max", "2.0", "--alpha-steps", "7", "--csv", str(csv)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / "region_map.py"), run_name="__main__")
    assert stop.value.code == 0
    assert calls == {"_grid": 1, "g_value": 0}
    assert capsys.readouterr().out == f"wrote 84 cells to {csv}\n" + REGION_MAP_TABLE


@pytest.mark.parametrize("csv", [False, True])
@pytest.mark.parametrize("args, error", [
    (["--n-min", "2"], "need n >= 3 bodies, got 2"),
    (["--n-min", "9", "--n-max", "5"], "--n-min must not exceed --n-max"),
    (["--alpha-steps", "0"], "--alpha-steps must be at least 1"),
])
def test_region_map_input_error_exits_two(tmp_path, args, error, csv):
    path = tmp_path / "region.csv"
    out = _run_script("region_map.py", *args, *(["--csv", str(path)] if csv else []))
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {error}\n")
    assert not path.exists()


def test_region_map_refuses_n_past_every_array(monkeypatch, capsys):
    # the range is refused before it is walked
    for module in (scanner, cli):
        monkeypatch.setattr(module, "_grid", lambda *args: pytest.fail("walked the range"))
    monkeypatch.setattr(sys, "argv", ["region_map.py", "--n-max", str(10**30)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(str(SCRIPTS / "region_map.py"), run_name="__main__")
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need n <= {sys.maxsize} bodies, got {10**30}\n"


def test_exclusion_survey_runs():
    out = _run_script("exclusion_survey.py", "--n-min", "4", "--n-max", "6")
    assert out.returncode == 0, out.stderr
    assert "one-heavy n=6" in out.stdout


# SHA-256 of exclusion_survey.py --n-min 4 --n-max 8 stdout, the table of
# 12 families, taken again from minimizer._mass_start; the script runs in a
# fresh interpreter with warnings as errors
EXCLUSION_SURVEY_DIGEST = "fc3366928def876061e9cb22195d211a0b64ee5d1764e259f2e0ef284bbdce81"


def test_exclusion_survey_table_frozen():
    out = _run_script("exclusion_survey.py", "--n-min", "4", "--n-max", "8")
    assert out.returncode == 0, out.stderr
    assert hashlib.sha256(out.stdout.encode()).hexdigest() == EXCLUSION_SURVEY_DIGEST


@pytest.mark.parametrize("args, error", [
    (["--n-min", "1"], "--n-min must be at least 2"),
    (["--n-min", "5", "--n-max", "4"], "--n-min must not exceed --n-max"),
    (["--alpha", "0"], "alpha must be positive, got 0.0"),
    (["--alpha", "nan"], "alpha must be a finite number"),
    (["--alpha", "2000"], "2**(3 + alpha)/alpha overflows at alpha = 2000.0"),
    (["--heavy", "0"], "masses must be positive and finite"),
    (["--heavy", "-1"], "masses must be positive and finite"),
])
def test_exclusion_survey_input_error_exits_two(args, error):
    out = _run_script("exclusion_survey.py", *args)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("heavy, code, error", [
    # the mass-scale defects: a heavy mass of 1e300 overflows the pair sums,
    # and one of 1e-300 leaves a reduced Hessian that is not positive definite
    ("1e300", 2, "the masses overflow a mass-weighted pair sum"),
    ("1e-300", 3, "reduced Hessian is not positive definite at the candidate"),
])
def test_exclusion_survey_solver_error_exits_with_cli_code(heavy, code, error):
    # the table stops at the failing row with one error line, no traceback
    out = _run_script("exclusion_survey.py", "--heavy", heavy)
    assert (out.returncode, out.stderr) == (code, f"error: {error}\n")
    assert out.stdout.splitlines()[0].startswith("family")

