import argparse
import contextlib
import io
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cocircular
import cocircular.potential as potential
from cocircular import TAU, AngleConfiguration, scan_region
from cocircular.cli import _floats, main
from frozen_outputs import (ALPHA_STAR_6, FROZEN, LITERALS, MINIMIZE_112, SCAN_CSV, pinned,
                            replay, run_in_process, sha256)

M112 = {"alpha": 1.0, "masses": [1.0, 1.0, 2.0]}


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_minimize_output_file(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", M112)
    out = tmp_path / "result.json"
    assert main(["minimize", "--input", inp, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == MINIMIZE_112


def test_minimize_byte_stable(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", M112)
    main(["minimize", "--input", inp])
    first = capsys.readouterr().out
    main(["minimize", "--input", inp])
    assert capsys.readouterr().out == first


def test_verify_square_is_cc(tmp_path, capsys):
    inp = write_json(tmp_path / "sq.json", {
        "alpha": 1.0, "masses": [1.0] * 4,
        "angles": [TAU / 4, TAU / 2, 3 * TAU / 4, TAU],
    })
    assert main(["verify", "--input", inp]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["is_cc"] is True
    assert data["tangential_residual"] < 1e-14
    assert data["radial_spread"] < 1e-14
    assert data["center_norm"] < 1e-14
    assert data["lambda_tilde"] == 1.9142135623730949


def test_minimize_verify_pipeline(tmp_path, capsys, monkeypatch):
    inp = write_json(tmp_path / "eq.json", {"alpha": 1.0, "masses": [1.0] * 5})
    assert main(["minimize", "--input", inp]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify", "--input", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["is_cc"] is True

    # an excluded mass vector minimizes somewhere that fails verification
    inp2 = write_json(tmp_path / "m.json", M112)
    assert main(["minimize", "--input", inp2]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))
    assert main(["verify", "--input", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["is_cc"] is False


def test_exclude_structure(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", M112)
    assert main(["exclude", "--input", inp]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["excluded"] is True
    assert data["f_value"] == 3.8196204817780002
    group = data["group"]
    assert group["excluded"] is True
    # the four margins tie in exact arithmetic and come out one ulp apart;
    # the witness is the first of the two largest
    assert group["witness"] == {"kind": "group", "h": 2, "l": 0}
    assert group["margin"] == 0.76081316738074611
    assert len(group["certificates"]) == 4
    assert all(group["margin"] - c["margin"] in (0.0, math.ulp(group["margin"]))
               for c in group["certificates"])
    swap = data["swap"]
    assert swap["excluded"] is True
    assert swap["inconsistent"] is False
    pairs = [c["witness"]["pair"] for c in swap["certificates"]]
    assert pairs == [[0, 2], [1, 2]]
    assert swap["margin"] == group["margin"]


def test_exclude_equal_masses_negative(tmp_path, capsys):
    inp = write_json(tmp_path / "eq.json", {"alpha": 1.0, "masses": [1.0] * 4})
    assert main(["exclude", "--input", inp]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["excluded"] is False
    assert data["group"]["witness"] is None
    assert data["group"]["certificates"] == []
    assert data["swap"]["certificates"] == []


@pytest.mark.parametrize("n", [11, 13, 26])
def test_exclude_and_minimize_at_unrounded_n(tmp_path, capsys, n):
    # 2*pi*n/n is not 2*pi in floating point at these n
    inp = write_json(tmp_path / "eq.json", {"alpha": 1.0, "masses": [1.0] * n})
    assert main(["minimize", "--input", inp]) == 0
    assert json.loads(capsys.readouterr().out)["angles"][-1] == TAU
    assert main(["exclude", "--input", inp]) == 0
    assert json.loads(capsys.readouterr().out)["excluded"] is False


@pytest.mark.parametrize("masses", [[1.0, 1.0], [1.0, 3.0], [1.0, 1e4]])
def test_exclude_and_minimize_two_bodies(tmp_path, capsys, masses):
    # the tight default k makes the two-body Hessian vanish at the diameter
    inp = write_json(tmp_path / "two.json", {"alpha": 1.0, "masses": masses})
    assert main(["minimize", "--input", inp]) == 0
    assert json.loads(capsys.readouterr().out)["angles"] == [np.pi, TAU]
    assert main(["exclude", "--input", inp]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["theta_m"] == [np.pi, TAU]
    assert data["excluded"] is (masses[0] != masses[1])


def test_scan_output_flag_writes_csv_by_default(tmp_path, capsys):
    # no --format: argparse's default is the only source of "csv"
    out = tmp_path / "cells.csv"
    code = main(["scan", "--n-min", "3", "--n-max", "6", "--alpha", "1",
                 "--output", str(out)])
    assert code == 0
    assert capsys.readouterr().out == ""
    assert out.read_text(encoding="utf-8") == SCAN_CSV


def test_scan_json_format(capsys):
    code = main(["scan", "--n-min", "3", "--n-max", "4", "--alpha", "1",
                 "--format", "json"])
    assert code == 0
    cells = json.loads(capsys.readouterr().out)
    assert cells == [
        {"n": 3, "alpha": 1, "g_value": 0.76980035891950116,
         "threshold": 1.25, "holds": True},
        {"n": 4, "alpha": 1, "g_value": 0.95710678118654757,
         "threshold": 1.25, "holds": True},
    ]


def test_scan_json_output_file_holds_the_printed_bytes(tmp_path, capsys):
    argv = ["scan", "--n-min", "3", "--n-max", "12", "--alpha", "0.5", "1", "3",
            "--format", "json"]
    assert main(argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "cells.json"
    assert main(argv + ["--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    with open(out, "rb") as fh:
        assert fh.read() == printed.encode("utf-8")


def test_scan_multiple_alphas_sorted(capsys):
    code = main(["scan", "--n-min", "5", "--n-max", "5",
                 "--alpha", "2", "0.5", "1"])
    assert code == 0
    lines = capsys.readouterr().out.splitlines()
    alphas = [float(line.split(",")[1]) for line in lines[1:]]
    assert alphas == [0.5, 1.0, 2.0]


@given(st.integers(3, 120), st.integers(0, 40),
       st.lists(st.floats(0.01, 8.0), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_scan_writes_the_cells_of_scan_region(n_min, width, alphas):
    # the CLI formats the g grid directly; it must print what formatting
    # scan_region's cells would
    argv = ["scan", "--n-min", str(n_min), "--n-max", str(n_min + width),
            "--alpha", *map(repr, alphas)]
    cells = scan_region(range(n_min, n_min + width + 1), alphas)
    fields = [(c.n, format(c.alpha, ".17g"), format(c.g_value, ".17g"),
               format(c.threshold, ".17g"), "true" if c.holds else "false") for c in cells]
    csv = "".join("%d,%s,%s,%s,%s\n" % f for f in fields)
    rows = ",".join('{"n":%d,"alpha":%s,"g_value":%s,"threshold":%s,"holds":%s}' % f
                    for f in fields)
    for fmt, want in (("csv", "n,alpha,g_value,threshold,holds\n" + csv),
                      ("json", "[" + rows + "]\n")):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(argv + ["--format", fmt]) == 0
        assert out.getvalue() == want


@given(st.lists(st.floats(allow_nan=True, allow_infinity=True), max_size=40))
@settings(max_examples=100, deadline=None)
def test_float_array_is_written_as_format_writes_each_value(values):
    # one % pass over a joined template, byte for byte one format per value
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 5e-324, 1.7976931348623157e308]
    for a in (np.array(values, dtype=float), np.array(special + values)):
        assert _floats(a) == "[" + ",".join([format(v, ".17g") for v in a.tolist()]) + "]"


def test_scan_not_closed_exits_two(monkeypatch, capsys):
    # g says n = 4 fails and n = 5 holds at every alpha
    monkeypatch.setattr(cocircular.scanner, "_g_block",
                        lambda ns, alphas: [[10.0 if n == 4 else 0.0] * len(alphas) for n in ns])
    for fmt in ("csv", "json"):
        assert main(["scan", "--n-min", "3", "--n-max", "6", "--alpha", "1", "2",
                     "--format", fmt]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), captured.err
        assert "downward closed" in lines[0]


def test_exit_code_two_on_bad_input(tmp_path, capsys, monkeypatch):
    assert main(["verify", "--input", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"masses":[1,1,2]}'))
    assert main(["minimize", "--input", "-"]) == 2
    assert "alpha" in capsys.readouterr().err

    monkeypatch.setattr(sys, "stdin", io.StringIO("not json"))
    assert main(["minimize", "--input", "-"]) == 2
    capsys.readouterr()

    monkeypatch.setattr(sys, "stdin", io.StringIO('{"alpha":1,"masses":[1,-1]}'))
    assert main(["minimize", "--input", "-"]) == 2
    capsys.readouterr()

    # each exits 2 with nothing on stdout and one error line
    for stdin, argv, message in [
        ("[1, 2]", ["minimize", "--input", "-"], "input must be a JSON object"),
        ('{"alpha": 1}', ["minimize", "--input", "-"], 'input needs a "masses" array'),
        ("", ["scan", "--n-min", "5", "--n-max", "3", "--alpha", "1"],
         "--n-min must not exceed --n-max"),
    ]:
        monkeypatch.setattr(sys, "stdin", io.StringIO(stdin))
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


@pytest.mark.parametrize("angles, message", [
    ([3.0, TAU], "3 masses but 2 angles"),
    ([1.0, 1.0 + 1e-13, TAU], "two bodies are within 1e-12 radians of each other"),
])
def test_minimize_bad_init_exits_two(tmp_path, capsys, angles, message):
    inp = write_json(tmp_path / "m.json", {**M112, "angles": angles})
    assert main(["minimize", "--input", inp]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", f"error: {message}\n")


@pytest.mark.parametrize("field, value, what", [
    ("angles", [[1, 2, 3]], "an angle configuration"),
    ("masses", [[1, 1], [2, 3]], "a mass vector"),
])
def test_two_dimensional_input_exits_two_naming_its_shape(tmp_path, capsys, field, value,
                                                          what):
    inp = write_json(tmp_path / "m.json", {**M112, "angles": [2.0, 4.0, TAU], field: value})
    assert main(["verify", "--input", inp]) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", f"error: {what} must be one-dimensional with at least two entries\n")


def test_exit_code_three_on_convergence_failure(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", M112)
    # a zero tolerance is valid but only an exactly vanishing gradient meets it
    assert main(["minimize", "--input", inp, "--tol", "0"]) == 3
    assert "error:" in capsys.readouterr().err


def test_verify_requires_angles(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", M112)
    assert main(["verify", "--input", inp]) == 2
    assert "angles" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["minimize", "verify", "exclude"])
def test_alpha_comes_from_the_input_alone(tmp_path, capsys, command):
    # a command that reads an input file takes no --alpha beside it
    inp = write_json(tmp_path / "sq.json", SQUARE)
    with pytest.raises(SystemExit) as exc:
        main([command, "--input", inp, "--alpha", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "--alpha" in captured.err and captured.out == ""
    problem = {k: v for k, v in SQUARE.items() if k != "alpha"}
    inp = write_json(tmp_path / "no_alpha.json", problem)
    assert main([command, "--input", inp]) == 2
    assert capsys.readouterr() == ("", 'error: input needs an "alpha" value\n')


def test_cli_writes_json_one_way_and_builds_one_parser():
    for name in ("_json", "_fmt", "build_parser"):
        assert not hasattr(cocircular.cli, name), name


SQUARE = {"alpha": 1.0, "masses": [1.0] * 4,
          "angles": [TAU / 4, TAU / 2, 3 * TAU / 4, TAU]}


@pytest.mark.parametrize("command", ["minimize", "verify", "exclude"])
@pytest.mark.parametrize("bad", [
    {"alpha": "x"},
    {"masses": ["a", 1, 2]},
    {"masses": [[1, 2], [3]]},
    {"angles": [1, "b", 3]},
    # float() and np.asarray would read true as 1.0 and "1" or "112" as numbers
    {"alpha": True, "masses": [1, True, 2]},
    {"alpha": "1"},
    {"masses": "112"},
])
def test_non_numeric_input_exits_two(tmp_path, capsys, command, bad):
    inp = write_json(tmp_path / "bad.json", {**M112, "angles": [1.0, 2.0, TAU], **bad})
    assert main([command, "--input", inp]) == 2
    assert "must be numbers" in capsys.readouterr().err


@pytest.mark.parametrize("alpha", [float("nan"), float("inf")])
def test_verify_rejects_non_finite_alpha(tmp_path, capsys, alpha):
    inp = write_json(tmp_path / "sq.json", {**SQUARE, "alpha": alpha})
    assert main(["verify", "--input", inp]) == 2
    assert "alpha" in capsys.readouterr().err


@pytest.mark.parametrize("command, payload", [("minimize", M112), ("verify", SQUARE)])
@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_bad_tolerance_exits_two(tmp_path, capsys, command, payload, tol):
    inp = write_json(tmp_path / "p.json", payload)
    assert main([command, "--input", inp, "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "tol" in captured.err and captured.out == ""


@pytest.mark.parametrize("tol", ["-1", "nan", "inf"])
def test_alpha_star_bad_tolerance_exits_two(capsys, tol):
    assert main(["alpha-star", "--n", "6", "--tol", tol]) == 2
    captured = capsys.readouterr()
    assert "tol" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["verify", "alpha-star"])
def test_negative_zero_tolerance_prints_as_zero(tmp_path, capsys, command):
    # -0.0 passes the tol >= 0 check and is the tolerance 0; both print it
    # as the checked +0.0, never as "-0"
    if command == "verify":
        argv = ["verify", "--input", write_json(tmp_path / "sq.json", SQUARE)]
    else:
        argv = ["alpha-star", "--n", "6"]
    outs = []
    for tol in ("-0.0", "0"):
        assert main([*argv, "--tol", tol]) == 0
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["tolerance"] == 0.0
    assert '"tolerance":-0' not in outs[0]


@pytest.mark.parametrize("argv", [
    ["alpha-star", "--n", str(10**30)],
    ["scan", "--n-min", "3", "--n-max", str(10**30), "--alpha", "1"],
    ["spectrum", "--n", str(10**30), "--alpha", "1"],
], ids=lambda argv: argv[0])
def test_n_past_every_array_exits_two(monkeypatch, capsys, argv):
    # no array holds more than sys.maxsize entries; scan refuses its range
    # before walking it
    monkeypatch.setattr("cocircular.cli._grid", lambda *args: pytest.fail("walked the range"))
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: need n <= {sys.maxsize} bodies, got {10**30}\n"


@pytest.mark.parametrize("argv, holds", [
    (["alpha-star", "--n", str(10**18)], "the sine table of g"),
    (["scan", "--n-min", str(10**18), "--n-max", str(10**18), "--alpha", "1"],
     "the sine table of g"),
    (["spectrum", "--n", str(10**18), "--alpha", "1"], "the sine table of g"),
], ids=["alpha-star", "scan", "spectrum"])
def test_n_past_every_memory_exits_two(capsys, argv, holds):
    # 10**18 fits an array length but no address space: numpy refuses the
    # table without allocating it
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: no memory holds {holds} at n = {10**18}\n"


@pytest.mark.parametrize("argv, alpha", [
    pytest.param(["minimize"], 2000.0, id="minimize input alpha 2000"),
    pytest.param(["exclude"], 2000.0, id="exclude input alpha 2000"),
    pytest.param(["spectrum", "--n", "4", "--alpha", "2000"], None,
                 id="spectrum --n 4 --alpha 2000"),
    pytest.param(["scan", "--n-min", "3", "--n-max", "300", "--alpha", "2000"], None,
                 id="scan --n-min 3 --n-max 300 --alpha 2000"),
    pytest.param(["minimize", "--k", "inf"], None, id="minimize --k inf"),
    pytest.param(["exclude", "--k", "inf"], None, id="exclude --k inf"),
])
def test_overflowing_alpha_or_infinite_k_exits_two(tmp_path, capsys, argv, alpha):
    # 2**(3 + alpha) and csc**alpha overflow a double; an infinite k would
    # print "k":inf, which is not JSON
    if argv[0] in ("minimize", "exclude"):
        problem = M112 if alpha is None else {**M112, "alpha": alpha}
        argv = argv + ["--input", write_json(tmp_path / "m.json", problem)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""
    if alpha is not None:
        assert captured.err == "error: 2**(3 + alpha)/alpha overflows at alpha = 2000.0\n"


@pytest.mark.parametrize("command", ["minimize", "exclude", "spectrum"])
@pytest.mark.parametrize("k", ["nan", "inf"])
def test_non_finite_k_prints_one_error_line(tmp_path, capsys, command, k):
    # nan passes no comparison, so it must not read as a k below k_min
    argv = [command, "--k", k]
    if command == "spectrum":
        argv += ["--n", "4", "--alpha", "1"]
    else:
        argv += ["--input", write_json(tmp_path / "m.json", M112)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: k must be a finite number\n")


@pytest.mark.parametrize("command", ["minimize", "exclude", "spectrum"])
def test_alpha_with_no_finite_k_exits_two(tmp_path, capsys, command):
    # 2**(3 + alpha)/alpha passes the largest double below alpha of about
    # 4.45e-308: the default k would print "k":inf, which is not JSON, and
    # exclude would certify from a functional with no finite k
    if command == "spectrum":
        argv = [command, "--n", "4", "--alpha", "1e-320"]
    else:
        problem = {"alpha": 1e-320, "masses": [1.0, 2.0, 3.0]}
        argv = [command, "--input", write_json(tmp_path / "m.json", problem)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == (
        "", "error: 2**(3 + alpha)/alpha overflows at alpha = 1e-320\n")


def test_commands_without_k_work_at_an_alpha_with_no_finite_k(tmp_path, capsys):
    # verify and scan form no k (alpha-star takes no alpha at all)
    inp = write_json(tmp_path / "sq.json", {
        "alpha": 1e-320, "masses": [1.0] * 4,
        "angles": [TAU / 4, TAU / 2, 3 * TAU / 4, TAU],
    })
    assert main(["verify", "--input", inp]) == 0
    assert json.loads(capsys.readouterr().out)["is_cc"] is True
    assert main(["scan", "--n-min", "3", "--n-max", "5", "--alpha", "1e-320"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4 and all(line.endswith(",1,true") for line in lines[1:])


def test_spectrum_overflow_exits_two(capsys):
    # csc(pi/1000)**1000 overflows W's first row; inf and nan are not JSON
    assert main(["spectrum", "--n", "1000", "--alpha", "1000"]) == 2
    captured = capsys.readouterr()
    assert "error:" in captured.err and captured.out == ""


@pytest.mark.parametrize("command", ["minimize", "exclude"])
@pytest.mark.parametrize("payload, cause", [
    ({"alpha": 1000.0, "masses": [1.0] * 50}, "alpha"),
    ({"alpha": 1.0, "masses": [1e200, 2e200, 3e200, 1.5e200]}, "mass"),
], ids=["chord-power-overflow", "mass-product-overflow"])
def test_non_finite_objective_exits_two(tmp_path, capsys, command, payload, cause):
    # r**-1002 overflows at the 50-gon's chords, and m_j m_k at 1e200;
    # neither is a solver failure, and "f_value":inf is not JSON
    inp = write_json(tmp_path / "p.json", payload)
    assert main([command, "--input", inp]) == 2
    captured = capsys.readouterr()
    assert cause in captured.err and captured.out == ""


def _run_cli(argv, payload=None, cwd=None):
    """argv in a new interpreter with warnings as errors; payload is stdin,
    as text or as JSON of it."""
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    stdin = payload if payload is None or isinstance(payload, str) else json.dumps(payload)
    return subprocess.run([sys.executable, "-W", "error", "-m", "cocircular", *argv], env=env,
                          cwd=cwd, input=stdin, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("argv, payload", [
    (["spectrum", "--n", "1000", "--alpha", "1000"], None),
    (["minimize", "--input", "-"], {"alpha": 1000.0, "masses": [1.0] * 50}),
    (["exclude", "--input", "-"], {"alpha": 1000.0, "masses": [1.0] * 50}),
    (["verify", "--input", "-"],
     {"alpha": 300.0, "masses": [1.0] * 3, "angles": [1.0, 1.000001, TAU]}),
    (["scan", "--n-min", "999", "--n-max", "1000", "--alpha", "1", "130"], None),
    # the first row of W is finite, its cosine sums are not
    (["spectrum", "--n", "1000", "--alpha", "139.875"], None),
    # f holds m_j m_k of about 1e5, q holds the heavy mass squared
    (["exclude", "--input", "-"], {"alpha": 1.0, "masses": [1e-150] * 3 + [1e155]}),
    # every group q is inf - inf = NaN, which q < -tol would drop
    (["exclude", "--input", "-"], {"alpha": 1.0, "masses": [1e-200, 1e-200, 1e308]}),
], ids=["spectrum", "minimize", "exclude", "verify", "scan", "spectrum-eigenvalue",
        "exclude-q", "exclude-nan-q"])
def test_overflow_prints_one_error_line(argv, payload):
    # numpy overflow warnings would put internal file paths ahead of the
    # typed error, and a report of inf or NaN is not JSON
    out = _run_cli(argv, payload)
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


def _nested_masses(depth):
    return '{"alpha": 1, "masses": ' + "[" * depth + "1" + "]" * depth + "}"


@pytest.mark.parametrize("depth", [988, 100_000])
@pytest.mark.parametrize("source", ["stdin", "file"])
def test_deeply_nested_input_exits_two(tmp_path, depth, source):
    # past the interpreter's recursion limit the decoder raises
    # RecursionError, which must read as bad input, not as a traceback
    if source == "stdin":
        out = _run_cli(["minimize", "--input", "-"], _nested_masses(depth))
    else:
        path = tmp_path / "deep.json"
        path.write_text(_nested_masses(depth), encoding="utf-8")
        out = _run_cli(["minimize", "--input", str(path)])
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "error: input nests its arrays or objects too deeply\n"


def test_number_check_past_the_recursion_limit_exits_two(monkeypatch, capsys):
    # the number check recurses once per level too, and may reach the
    # limit where the decoder did not
    def too_deep(value):
        raise RecursionError("maximum recursion depth exceeded")
    monkeypatch.setattr("cocircular.cli._check_numbers", too_deep)
    monkeypatch.setattr(sys, "stdin", io.StringIO(_nested_masses(3)))
    assert main(["minimize", "--input", "-"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nests its arrays or objects too deeply\n"


REQUIRED_FLAGS = {
    "minimize": {"--input": "m.json"},
    "verify": {"--input": "m.json"},
    "exclude": {"--input": "m.json"},
    "spectrum": {"--n": "4", "--alpha": "1"},
    "scan": {"--n-min": "3", "--n-max": "6", "--alpha": "1"},
    "alpha-star": {"--n": "6"},
}


@pytest.mark.parametrize("command, missing", [
    (command, flag) for command, flags in REQUIRED_FLAGS.items() for flag in flags
])
def test_missing_required_flag_is_a_usage_error(capsys, command, missing):
    argv = [command]
    for flag, value in REQUIRED_FLAGS[command].items():
        if flag != missing:
            argv += [flag, value]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert missing in captured.err and captured.out == ""


def _check_digest(name, texts):
    entry = FROZEN[name]
    text = pinned(entry.steps, texts)
    if entry.digest in LITERALS:  # a moved byte shows in pytest's diff
        assert text == LITERALS[entry.digest]
    now = sha256(text)
    assert now == entry.digest, f"{name} ({entry.why}): frozen {entry.digest}, now {now}"


@pytest.mark.parametrize("name", list(FROZEN))
def test_frozen_output(tmp_path, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    _check_digest(name, replay(FROZEN[name].steps, run_in_process, tmp_path))


@pytest.mark.parametrize("name", [name for name, entry in FROZEN.items() if entry.fresh])
def test_frozen_output_in_a_fresh_process(tmp_path, name):
    # one interpreter per step, as a shell pipes them: no step shares a
    # pair workspace or a block cache with another
    def run(argv, stdin):
        out = _run_cli(argv, stdin, cwd=tmp_path)
        return out.returncode, out.stdout, out.stderr

    _check_digest(name, replay(FROZEN[name].steps, run, tmp_path))


def test_minimize_verify_pipe_matches_in_process():
    # in process verify reuses the minimizer's chords, where the piped verify
    # of test_frozen_output_in_a_fresh_process builds its own; both must
    # print the entry's bytes
    def run(argv, stdin):
        if argv[0] == "verify":  # the workspace holds the minimizer's frame
            angles = AngleConfiguration(json.loads(stdin)["angles"])
            assert potential._local.ws.key == (angles.angles.tobytes(), 1.0)
        return run_in_process(argv, stdin)

    _check_digest("verify-equal-6", replay(FROZEN["verify-equal-6"].steps, run, None))

# the bracket that alpha-star --tol 0 ends on at these n, where no
# bisection midpoint has a residual of exactly 0
ALPHA_STAR_COLLAPSED = {
    11: ("0.37360588127397554", "0.3736058812739756"),
    461: ("0.005028616860744956", "0.005028616860744957"),
    972: ("0.002355198374516461", "0.0023551983745164614"),
}


@pytest.mark.parametrize("n", [11, 461, 972])
def test_alpha_star_zero_tolerance_convergence_failure(monkeypatch, capsys, n):
    alphas = []
    threshold = cocircular.scanner.condition_threshold
    monkeypatch.setattr("cocircular.scanner.condition_threshold",
                        lambda a: alphas.append(a) or threshold(a))
    assert main(["alpha-star", "--n", str(n), "--tol", "0"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    lo, hi = ALPHA_STAR_COLLAPSED[n]
    assert captured.err == (
        f"error: bisection residual above 0.0 with no double between {lo} and {hi}\n")
    assert math.nextafter(float(lo), math.inf) == float(hi)
    # one psi per alpha tried: the bracket's ends are powers of 2, every
    # midpoint lies strictly inside their binade, and 52 halvings of a
    # binade leave adjacent doubles
    assert sum(math.frexp(a)[0] != 0.5 for a in alphas) == 52


@pytest.mark.parametrize("command", ["minimize", "verify", "exclude"])
def test_overflowing_total_mass_prints_one_error_line(command):
    # each mass is a finite double, their sum is not
    out = _run_cli([command, "--input", "-"],
                   {"alpha": 1.0, "masses": [1e308] * 3, "angles": [1.0, 2.0, TAU]})
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


def test_reused_parser_matches_fresh_process(monkeypatch, capsys):
    # one process runs every call through the same parser; each must print
    # what a fresh interpreter prints for it
    monkeypatch.setenv("COLUMNS", "80")
    calls = [
        ["scan", "--n-min", "3"],
        ["--help"],
        ["alpha-star", "--n", "6"],
        ["scan", "--n-min", "3", "--n-max", "6", "--alpha", "2", "0.5"],
    ]
    for argv in calls:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
        captured = capsys.readouterr()
        fresh = _run_cli(argv)
        assert code == fresh.returncode
        assert captured.out == fresh.stdout
        assert captured.err == fresh.stderr


def test_main_builds_one_parser(monkeypatch, capsys):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        if kwargs.get("prog") == "cocircular":
            built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    for _ in range(20):
        assert main(["alpha-star", "--n", "6"]) == 0
        assert capsys.readouterr().out == ALPHA_STAR_6
    assert len(built) <= 1


def test_import_builds_no_parser():
    probe = (
        "import argparse\n"
        "built = []\n"
        "init = argparse.ArgumentParser.__init__\n"
        "def counting_init(self, *a, **k):\n"
        "    built.append(k.get('prog'))\n"
        "    init(self, *a, **k)\n"
        "argparse.ArgumentParser.__init__ = counting_init\n"
        "import cocircular, cocircular.cli\n"
        "print(len(built))\n"
    )
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    out = subprocess.run([sys.executable, "-c", probe], env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "0\n"
