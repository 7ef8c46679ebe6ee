"""The package's public names: what a command, a script or the benchmark calls.

The surface those callers do not use stays out: no step cap on
``minimize_f_k``, no smallest gap on its result, no element list on
``GroupElement`` and no ``scan --csv``.

Test oracles live in ``tests/``; a name added to or dropped from
``cocircular.__all__`` has to be added to or dropped from this list too.
The README's library example runs here as written, and no check of the
package or the scripts is one that ``python -O`` strips.
"""

import ast
import dataclasses
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cocircular
from cocircular import GroupElement, MinimizeResult, minimize_f_k
from cocircular.cli import main

PUBLIC = [
    "AngleConfiguration",
    "AuxiliaryFunctional",
    "CCReport",
    "COLLISION_TOL",
    "CocircularError",
    "CollisionError",
    "ConvergenceFailure",
    "DimensionError",
    "DomainError",
    "ExclusionVerdict",
    "GroupElement",
    "InvalidArity",
    "KTooSmall",
    "MassVector",
    "MinimizeResult",
    "NoBracket",
    "RegionCell",
    "RegionNotClosed",
    "TAU",
    "UnsupportedExponent",
    "act_on_masses",
    "alpha_star",
    "center_of_mass",
    "circulant_spectrum",
    "condition_threshold",
    "exclusion_verdicts",
    "g_value",
    "grad_theta_f_k",
    "k_min",
    "minimize_f_k",
    "pair_weight_matrix",
    "regular_ngon",
    "scan_region",
    "verify_cc",
]

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ROOT / "perfbench" / "workloads.py"
SHIPPED = sorted([*(ROOT / "src" / "cocircular").glob("*.py"), *(ROOT / "scripts").glob("*.py")])


def test_public_names_are_frozen():
    assert sorted(cocircular.__all__) == PUBLIC
    assert len(PUBLIC) == 34
    for name in PUBLIC:
        assert getattr(cocircular, name) is not None, name


def test_benchmark_imports_only_public_names():
    tree = ast.parse(WORKLOADS.read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.module == "cocircular"
                for alias in node.names}
    assert imported
    assert imported <= set(cocircular.__all__), imported - set(cocircular.__all__)


def test_minimize_takes_no_step_cap():
    params = inspect.signature(minimize_f_k).parameters.values()
    assert [(p.name, p.kind) for p in params] == [
        ("aux", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("masses", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("init", inspect.Parameter.POSITIONAL_OR_KEYWORD),
        ("grad_tol", inspect.Parameter.KEYWORD_ONLY),
    ]


def test_minimize_result_fields():
    assert [f.name for f in dataclasses.fields(MinimizeResult)] == [
        "theta_m", "f_value", "grad_norm", "iterations", "converged"]


def test_group_element_lists_no_group():
    # the test oracle lists the group; the scans decode their rows unlisted
    assert not hasattr(GroupElement, "elements")


def test_scan_has_no_csv_flag(tmp_path, capsys):
    out = tmp_path / "cells.csv"
    with pytest.raises(SystemExit) as exc:
        main(["scan", "--n-min", "3", "--n-max", "6", "--alpha", "1", "--csv", str(out)])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""
    assert not out.exists()


def test_no_check_is_stripped_under_optimize_flag():
    # python -O drops assert statements and the code under __debug__; with
    # neither in the package or the scripts, every check runs under -O too
    stripped = [f"{path.relative_to(ROOT)}:{node.lineno}"
                for path in SHIPPED
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Assert)
                or isinstance(node, ast.Name) and node.id == "__debug__"]
    assert SHIPPED
    assert not stripped, stripped


def test_readme_library_example_runs(tmp_path):
    # the README's first python block, outside the checkout with warnings
    # as errors and the package's source alone on the path
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    example = tmp_path / "readme_example.py"
    example.write_text(re.search(r"```python\n(.*?)```", readme, re.S).group(1), encoding="utf-8")
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    out = subprocess.run([sys.executable, "-W", "error", str(example)], cwd=tmp_path,
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
