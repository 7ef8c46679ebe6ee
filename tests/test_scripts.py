import runpy
import sys

import pytest

import cocircular
from cocircular import cli, scanner
from cocircular.cli import main
from conftest import run_python
from frozen_outputs import REGION_MAP_TABLE, ROOT

REGION_MAP = str(ROOT / "scripts" / "region_map.py")
SURVEY = str(ROOT / "scripts" / "exclusion_survey.py")


def test_region_map_csv_matches_cli_scan(tmp_path, capsys):
    csv = tmp_path / "region.csv"
    out = run_python(REGION_MAP, "--n-min", "3", "--n-max", "8",
                      "--alpha-steps", "5", "--csv", str(csv))
    assert out.returncode == 0, out.stderr
    rows = csv.read_text(encoding="utf-8")
    alphas = sorted({line.split(",")[1] for line in rows.splitlines()[1:]},
                    key=float)
    assert len(alphas) == 5
    assert main(["scan", "--n-min", "3", "--n-max", "8", "--alpha", *alphas]) == 0
    assert capsys.readouterr().out == rows


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
        runpy.run_path(REGION_MAP, run_name="__main__")
    assert stop.value.code == 0
    assert calls == {"_grid": 1, "g_value": 0}
    assert capsys.readouterr().out == f"wrote 84 cells to {csv}\n" + REGION_MAP_TABLE


@pytest.mark.parametrize("csv", [False, True])
@pytest.mark.parametrize("args, error", [
    (["--n-min", "2"], "need n >= 3 bodies, got 2"),
    (["--n-min", "9", "--n-max", "5"], "--n-min must not exceed --n-max"),
    (["--alpha-steps", "0"], "--alpha-steps must be at least 1"),
    # numpy's linspace of these is NaN, with a warning that -W error raises
    (["--alpha-max=inf"], "alpha must be a finite number"),
    (["--alpha-min=-1e308", "--alpha-max=1e308"], "alpha must be a finite number"),
    # 10**15 doubles are 7.1 PiB, past any address space, so the request fails at once
    (["--alpha-steps", str(10**15)],
     f"no memory holds the alpha grid at --alpha-steps = {10**15}"),
])
def test_region_map_input_error_exits_two(tmp_path, args, error, csv):
    path = tmp_path / "region.csv"
    out = run_python(REGION_MAP, *args, *(["--csv", str(path)] if csv else []))
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {error}\n")
    assert not path.exists()


def test_region_map_refuses_n_past_every_array(monkeypatch, capsys):
    # the range is refused before it is walked
    for module in (scanner, cli):
        monkeypatch.setattr(module, "_grid", lambda *args: pytest.fail("walked the range"))
    monkeypatch.setattr(sys, "argv", ["region_map.py", "--n-max", str(10**30)])
    with pytest.raises(SystemExit) as stop:
        runpy.run_path(REGION_MAP, run_name="__main__")
    assert stop.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need n <= {sys.maxsize} bodies, got {10**30}\n"


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
    out = run_python(SURVEY, *args)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", f"error: {error}\n")


@pytest.mark.parametrize("heavy, code, error", [
    # the mass-scale defects: a heavy mass of 1e300 overflows the pair sums,
    # and one of 1e-300 leaves a reduced Hessian that is not positive definite
    ("1e300", 2, "the masses overflow a mass-weighted pair sum"),
    ("1e-300", 3, "reduced Hessian is not positive definite at the candidate"),
])
def test_exclusion_survey_solver_error_exits_with_cli_code(heavy, code, error):
    # the table stops at the failing row with one error line, no traceback
    out = run_python(SURVEY, "--heavy", heavy)
    assert (out.returncode, out.stderr) == (code, f"error: {error}\n")
    assert out.stdout.splitlines()[0].startswith("family")

