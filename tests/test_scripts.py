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
