"""The package's public names: what a command, a script or the benchmark calls.

Test oracles live in ``tests/``; a name added to or dropped from
``cocircular.__all__`` has to be added to or dropped from this list too.
"""

import ast
from pathlib import Path

import cocircular

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

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


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
