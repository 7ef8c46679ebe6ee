import os
import subprocess
import sys
from pathlib import Path

import cocircular
from cocircular.cli import main

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run_script(name, *args):
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run([sys.executable, str(SCRIPTS / name), *args], env=env,
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


def test_exclusion_survey_runs():
    out = _run_script("exclusion_survey.py", "--n-min", "4", "--n-max", "6")
    assert out.returncode == 0, out.stderr
    assert "one-heavy n=6" in out.stdout


def test_pair_faults_runs():
    out = _run_script("pair_faults.py", "--n", "16", "--alpha", "1", "3",
                      "--repeats", "2")
    assert out.returncode == 0, out.stderr
    rows = [line.split() for line in out.stdout.splitlines()[2:]]
    assert [row[:2] for row in rows] == [["16", "1"], ["16", "3"]]
    assert all(float(value) >= 0.0 for row in rows for value in row[2:])
