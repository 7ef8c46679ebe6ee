import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import re
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
from conftest import certify_masses, on_fresh_thread

M112 = {"alpha": 1.0, "masses": [1.0, 1.0, 2.0]}

MINIMIZE_112 = (
    '{"alpha":1,"k":16,"masses":[1,1,2],'
    '"angles":[2.1722178298114287,4.110967477368157,6.2831853071795862],'
    '"f_value":3.8196204817780002,"grad_norm":2.3132280137996354e-11,'
    '"iterations":3,"converged":true}\n'
)

SCAN_CSV = (
    "n,alpha,g_value,threshold,holds\n"
    "3,1,0.76980035891950116,1.25,true\n"
    "4,1,0.95710678118654757,1.25,true\n"
    "5,1,1.1011055363769386,1.25,true\n"
    "6,1,1.2182335127930841,1.25,true\n"
)

SPECTRUM_4 = (
    "[2.4142135623730949,-0.75000000000000011,"
    "-0.91421356237309503,-0.74999999999999967]\n"
)

ALPHA_STAR_6 = (
    '{"n":6,"alpha_star":1.1110131188252126,"g_value":1.2777532797064375,'
    '"threshold":1.2777532797063031,"residual":1.3433698597964394e-13,'
    '"tolerance":9.9999999999999998e-13}\n'
)


def write_json(path, payload):
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_minimize_frozen_stdout(tmp_path, capsys):
    inp = write_json(tmp_path / "m.json", M112)
    assert main(["minimize", "--input", inp]) == 0
    assert capsys.readouterr().out == MINIMIZE_112


def test_minimize_reads_stdin(monkeypatch, capsys):
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(M112)))
    assert main(["minimize", "--input", "-"]) == 0
    assert capsys.readouterr().out == MINIMIZE_112


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


def test_minimize_verify_pipeline(tmp_path, capsys):
    inp = write_json(tmp_path / "eq.json", {"alpha": 1.0, "masses": [1.0] * 5})
    assert main(["minimize", "--input", inp]) == 0
    minimized = capsys.readouterr().out

    import io as _io
    sys_stdin = sys.stdin
    sys.stdin = _io.StringIO(minimized)
    try:
        assert main(["verify", "--input", "-"]) == 0
    finally:
        sys.stdin = sys_stdin
    report = json.loads(capsys.readouterr().out)
    assert report["is_cc"] is True

    # an excluded mass vector minimizes somewhere that fails verification
    inp2 = write_json(tmp_path / "m.json", M112)
    assert main(["minimize", "--input", inp2]) == 0
    minimized = capsys.readouterr().out
    sys.stdin = _io.StringIO(minimized)
    try:
        assert main(["verify", "--input", "-"]) == 0
    finally:
        sys.stdin = sys_stdin
    report = json.loads(capsys.readouterr().out)
    assert report["is_cc"] is False


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


def test_spectrum_frozen(capsys):
    assert main(["spectrum", "--n", "4", "--alpha", "1"]) == 0
    assert capsys.readouterr().out == SPECTRUM_4


def test_scan_csv_frozen(capsys):
    assert main(["scan", "--n-min", "3", "--n-max", "6", "--alpha", "1"]) == 0
    assert capsys.readouterr().out == SCAN_CSV


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


def test_scan_thread_count_does_not_change_bytes(tmp_path, monkeypatch, capsys):
    # no command reads COCIRCULAR_THREADS, so no value of it changes a result
    argv = ["scan", "--n-min", "3", "--n-max", "12", "--alpha", "0.5", "1", "2"]
    main(argv)
    baseline = capsys.readouterr().out
    for threads in ("1", "2", "5", "abc"):
        monkeypatch.setenv("COCIRCULAR_THREADS", threads)
        assert main(argv) == 0
        assert capsys.readouterr().out == baseline
    inp = write_json(tmp_path / "m.json", M112)
    assert main(["minimize", "--input", inp]) == 0
    assert capsys.readouterr().out == MINIMIZE_112


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


def test_scan_not_closed_exits_two_under_optimize_flag():
    script = (
        "import sys\n"
        "import cocircular.cli, cocircular.scanner\n"
        "cocircular.scanner._g_block = lambda ns, alphas:"
        " [[10.0 if n == 4 else 0.0] * len(alphas) for n in ns]\n"
        "sys.exit(cocircular.cli.main(['scan', '--n-min', '3', '--n-max', '6',"
        " '--alpha', '1']))\n"
    )
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    out = subprocess.run([sys.executable, "-O", "-c", script],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=120)
    assert out.returncode == 2
    assert out.stdout == ""
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


def test_alpha_star_frozen(capsys):
    assert main(["alpha-star", "--n", "6"]) == 0
    assert capsys.readouterr().out == ALPHA_STAR_6


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
    (["spectrum", "--n", str(10**18), "--alpha", "1"], "the regular n-gon"),
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


# SHA-256 of stdout, taken while the spectrum was still read off the full
# n x n W with one cosine sum per eigenvalue
SPECTRUM_DIGESTS = {
    (5, "1"): "44d097e87711414332fc3b7748fa5bd92ea58f18129a2305693da34a851c8ddb",
    (256, "1"): "58139763b277b859bafbee77674c077ca649e7f2749a4b003751c22d4162f866",
    (512, "1"): "b4a16721d4d62d82594f241d8b1408d4ec23d68b187695a4ae86fbe5ac1d299d",
    (5, "2.9"): "b4be9523820521492596936c0af74fe4fd6066b2c0701771783c1ba33b0ef5bf",
    (256, "2.9"): "69362aaf0ee6486ec19dd07e1beee3f4b05509326429c918865304b5ec719cdc",
    (512, "2.9"): "05942cf8b0aa486dc8e9c5988b359c2c790dfe414ed0297ca75e65e271300a0c",
}


@pytest.mark.parametrize("n, alpha", sorted(SPECTRUM_DIGESTS))
def test_spectrum_frozen_digest(capsys, n, alpha):
    assert main(["spectrum", "--n", str(n), "--alpha", alpha]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == SPECTRUM_DIGESTS[n, alpha]


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


def _run_cli(argv, payload=None):
    """argv in a new interpreter; payload is stdin, as text or as JSON of it."""
    src = os.path.dirname(os.path.dirname(cocircular.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    stdin = payload if payload is None or isinstance(payload, str) else json.dumps(payload)
    return subprocess.run([sys.executable, "-m", "cocircular", *argv], env=env,
                          input=stdin, capture_output=True, text=True, timeout=120)


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


# SHA-256 of stdout for 256 masses drawn U(0.5, 2) with seed 256, taken
# again, on two OpenBLAS threads, when the default start became
# minimizer._mass_start and when the Newton step's Hessian took
# cos(du/2)**2 from the chord; tests/test_meaning.py checks what they say.
LARGE_N_DIGESTS = {
    ("minimize", 0.5): "13d8577677ba2bc540b7f57f16fc8aa08355b3a9ce7777e08308b8cdce049268",
    ("exclude", 0.5): "9f126cec9a461cfa73b5226a7f16addfea0340c0e932fb894261c1d488b78d79",
    ("minimize", 1.0): "1ca6ec327d2e8c670773aa8523be1fdb2e5bf05831875971a51735fd6c1ecc1d",
    ("exclude", 1.0): "55d44804cdc1390d7cc32d1622edaa0a9b2a049bc37aae5ff307c79d29e0c9ec",
    ("minimize", 3.0): "830180e1dd6b810845b4a4156163a56496091d702807f3f7f5ce60735322eb88",
    ("exclude", 3.0): "4d4815d1f97f819bd6a23a839665ec11eb33ee0f3e36cf9084c639ebd72bcd91",
}


@pytest.mark.parametrize("command, alpha", sorted(LARGE_N_DIGESTS))
def test_large_n_frozen_stdout(tmp_path, capsys, command, alpha):
    masses = np.random.default_rng(256).uniform(0.5, 2.0, 256)
    inp = write_json(tmp_path / "m.json", {"alpha": alpha, "masses": masses.tolist()})
    assert main([command, "--input", inp]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_N_DIGESTS[command, alpha]


# SHA-256 of exclude stdout for 255 unit masses and one of 300 at n = 256,
# first taken while the group scan ran one gemv per distinct image in a
# Python loop, again from minimizer._mass_start and again with the
# Hessian from the chord. The images repeat, so these pin the scan's
# deduplicated path at a size where OpenBLAS may split a gemv over threads.
LARGE_N_ONE_HEAVY_DIGESTS = {
    0.5: "09fa71d1b752bf6f8dd3dd4e33a6bf11dbc88382ef0cdd00a34855bae09f5c5c",
    1.0: "fc989aebb6990ef40b42c83541a57f26dad1111deaeae10e18f28e99224260c4",
    3.0: "e9561da47a27cf04677a85208b047ca85e1fd933379679e8e8faa1067e1fc6c3",
}


@pytest.mark.parametrize("alpha", sorted(LARGE_N_ONE_HEAVY_DIGESTS))
def test_large_n_one_heavy_exclude_frozen_stdout(tmp_path, capsys, alpha):
    masses = certify_masses("one-heavy", 256, ratio=300.0).tolist()
    inp = write_json(tmp_path / "m.json", {"alpha": alpha, "masses": masses})
    assert main(["exclude", "--input", inp]) == 0
    assert _sha(capsys.readouterr().out) == LARGE_N_ONE_HEAVY_DIGESTS[alpha]


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


# SHA-256 of what the JSON writer produces for each shape it handles, taken
# while every value was still written by a recursive walk with one
# json.dumps per dict key; verify-large-n, exclude-112 and minimize-output
# were taken again from minimizer._mass_start, and verify-large-n and
# minimize-output again with the Hessian from the chord.
WRITER_DIGESTS = {
    # verify on the n = 256, alpha = 1 minimize output of LARGE_N_DIGESTS
    "verify-large-n": "753f2e071bb4f93d1f995f4fd9cebe15b6953e4d8ba5818f2310b3655addcb2b",
    # group and swap certificates, "inconsistent"
    "exclude-112": "4d5d9bac6ecfe8e81c32de82526b0a0b994a3e7c9f28f7d369cbe22c8efd11b1",
    # null witnesses, empty certificate lists
    "exclude-equal": "0158ca49c269fa2476515503b591cc08e97c51849354c8bc6f7f35e7e0838b05",
    "scan-json": "755bdaaaaabbc6b32bb0f2164361ec9d5974faf8e5b1910f061191103bf474a2",
    # the file minimize --output writes, 64 masses U(0.5, 2), seed 64, alpha 0.5
    "minimize-output": "23216f94ef1037f208f2bd72087117496a189f9e9107d04020fa524c61dfefe6",
}


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def _pipe_large_n_minimize(tmp_path, capsys, monkeypatch, alpha):
    """Put the n = 256 minimize stdout of LARGE_N_DIGESTS at alpha on stdin."""
    masses = np.random.default_rng(256).uniform(0.5, 2.0, 256)
    inp = write_json(tmp_path / "m.json", {"alpha": alpha, "masses": masses.tolist()})
    assert main(["minimize", "--input", inp]) == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(capsys.readouterr().out))


def test_verify_large_n_frozen_stdout(tmp_path, capsys, monkeypatch):
    _pipe_large_n_minimize(tmp_path, capsys, monkeypatch, 1.0)
    assert main(["verify", "--input", "-"]) == 0
    assert _sha(capsys.readouterr().out) == WRITER_DIGESTS["verify-large-n"]


def test_verify_large_n_frozen_stdout_on_a_fresh_thread(tmp_path, capsys, monkeypatch):
    # the miss-path twin of the test above: verify builds its own chords
    _pipe_large_n_minimize(tmp_path, capsys, monkeypatch, 1.0)
    assert on_fresh_thread(main, ["verify", "--input", "-"]) == 0
    assert _sha(capsys.readouterr().out) == WRITER_DIGESTS["verify-large-n"]


# SHA-256 of verify on the n = 256 minimize stdout of LARGE_N_DIGESTS at
# alpha = 0.5, whose radial powers take np.power, and alpha = 3, whose
# take a multiply chain; first taken while the mirror wrote through a
# mask, again from minimizer._mass_start and again with the Hessian from
# the chord.
VERIFY_LARGE_N_DIGESTS = {
    0.5: "6a7177dce6e6f89395dd09b10cdc127d80a0e5eaeca9a7a41fc58de62330d416",
    3.0: "5d80d2011824815b077a9734d836dca3d090ef011b0a089d43e95cf9d7e15720",
}


@pytest.mark.parametrize("fresh", [False, True], ids=["frame-hit", "fresh-thread"])
@pytest.mark.parametrize("alpha", sorted(VERIFY_LARGE_N_DIGESTS))
def test_verify_large_n_frozen_stdout_at_alpha(tmp_path, capsys, monkeypatch, alpha, fresh):
    _pipe_large_n_minimize(tmp_path, capsys, monkeypatch, alpha)
    argv = ["verify", "--input", "-"]
    assert (on_fresh_thread(main, argv) if fresh else main(argv)) == 0
    assert _sha(capsys.readouterr().out) == VERIFY_LARGE_N_DIGESTS[alpha]


# SHA-256 of `cocircular minimize | cocircular verify` stdout at six equal
# masses, alpha = 1; the CI smoke step "Smoke minimize | verify" checks it
SIX_EQUAL = {"alpha": 1.0, "masses": [1, 1, 1, 1, 1, 1]}
VERIFY_SIX_EQUAL = "cddc4b2aafcf61c47ade97e8e3c9504434deaf3eed91c2eeb9d5d8b826239c14"


def test_minimize_verify_pipe_matches_in_process(capsys, monkeypatch):
    # two processes never share a workspace, so the piped verify misses,
    # while the in-process one reuses the minimizer's chords
    minimized = _run_cli(["minimize", "--input", "-"], SIX_EQUAL)
    piped = _run_cli(["verify", "--input", "-"], minimized.stdout)
    assert minimized.returncode == piped.returncode == 0
    monkeypatch.setattr(sys, "stdin", io.StringIO(json.dumps(SIX_EQUAL)))
    assert main(["minimize", "--input", "-"]) == 0
    assert capsys.readouterr().out == minimized.stdout
    angles = AngleConfiguration(json.loads(minimized.stdout)["angles"])
    assert potential._local.ws.key == (angles.angles.tobytes(), 1.0)
    monkeypatch.setattr(sys, "stdin", io.StringIO(minimized.stdout))
    assert main(["verify", "--input", "-"]) == 0
    assert capsys.readouterr().out == piped.stdout
    assert _sha(piped.stdout) == VERIFY_SIX_EQUAL


@pytest.mark.parametrize("key, payload", [
    ("exclude-112", M112),
    ("exclude-equal", {"alpha": 1.0, "masses": [1.0] * 4}),
])
def test_exclude_frozen_stdout(tmp_path, capsys, key, payload):
    inp = write_json(tmp_path / "m.json", payload)
    assert main(["exclude", "--input", inp]) == 0
    assert _sha(capsys.readouterr().out) == WRITER_DIGESTS[key]


# SHA-256 of the exclude stdout for alpha = 0.5, 1 and 3 in turn, first
# taken while every line-search trial still built a validated
# AngleConfiguration and the scans tested and labelled one image row at a
# time, again from minimizer._mass_start and again with the Hessian from
# the chord (all but two-heavy 26, graded 9 and uniform 9 moved). They pin
# the certificate order, witnesses, margins and "inconsistent" flags at the
# sizes the certify benchmark runs.
CERTIFY_DIGESTS = {
    ("one-heavy", 9):
        "7bc3b17daaa8e15cabb2c0dfaf7f6017728b04432c633fb8e89387824eb50066",
    ("one-heavy", 13):
        "ee908e86bdd005a5c48c190a70caec4a580b2de5a11ffa61552b1227aec992c8",
    ("one-heavy", 26):
        "ab263e2e1c3e928568f08596a7509e529cd608e09f17b6c613ebce84c6fbbbe3",
    ("one-heavy", 40):
        "8e9f3b116987d402f47ee398eb8583e1bcd1f094193b9c955b5a553258d09fc4",
    ("two-heavy", 9):
        "8f7bdd55fa47eefe7cc4b5f4b8b80aaa22ec2520285f9c6c89236579be42460f",
    ("two-heavy", 13):
        "46b4f5dd77a9751d2f5fe548b81c5911102854d63541f0ac39a610f2477d971a",
    ("two-heavy", 26):
        "7da761a87e01c0ed746097e17e40c33eb4df71d56c892f416fff7e092a3b6631",
    ("two-heavy", 40):
        "ad859088467fa8aac44a54abe4e906aed37846df0250f7b93294897632138ded",
    ("graded", 9):
        "137c5bbda9216304b41c4a9af0d220ae470a9336a0c2a1e12b64dcd02ab71419",
    ("graded", 13):
        "72013f0d327d1547978728091a60f7aeab90e6fbbd04cc87ba36bd7c0b169ab5",
    ("graded", 26):
        "9c93cae842a0a7d1a4673258337ff40dc1ce24d65da502fa13df194f7a4efe8b",
    ("graded", 40):
        "13d6972596d15ccb413ca4328a560d8b9820b12c00b00d32727188a7009255b1",
    ("uniform", 9):
        "8b03aa8a168c4ae68c8af5cc20e2d7921043783a20299d681340eb408e0452ca",
    ("uniform", 13):
        "ba5b4c9ca71c09a4779f4d2646848b723236f4907b0e5388cd249cbe2891ab77",
    ("uniform", 26):
        "08b0bb8630947ac0073d7160fe16d02f260c071f97f55ca46c4e76e4b7a94c7f",
    ("uniform", 40):
        "3641415269ba79f0d9c5c769a19625de9189c6b28fedabb378b6ccdbddf73eed",
}


# SHA-256 of the exclude stdout for each tile in turn, each at alpha = 0.5,
# 1 and 3, taken while the group scan still found repeated images by
# hashing the rows, and again with the Hessian from the chord. Shifts by 3, 4 and 6 fix these masses, and
# reflections fix the last two.
SHIFT_FIXED_TILES = [[1, 2, 3] * 4, [1, 2, 2, 1] * 6, [1, 2, 3, 3, 2, 1] * 4]
SHIFT_FIXED_DIGEST = "beb5bfda9267861154f4d502e3c107e3679cce82cda3c406d0b601d017e5f663"


def test_exclude_shift_fixed_masses_frozen_stdout(tmp_path, capsys):
    out = ""
    for masses in SHIFT_FIXED_TILES:
        for alpha in (0.5, 1.0, 3.0):
            inp = write_json(tmp_path / "m.json", {"alpha": alpha, "masses": masses})
            assert main(["exclude", "--input", inp]) == 0
            out += capsys.readouterr().out
    assert _sha(out) == SHIFT_FIXED_DIGEST


@pytest.mark.parametrize("family, n", list(CERTIFY_DIGESTS))
def test_exclude_certify_sizes_frozen_stdout(tmp_path, capsys, family, n):
    masses = certify_masses(family, n).tolist()
    out = ""
    for alpha in (0.5, 1.0, 3.0):
        inp = write_json(tmp_path / "m.json", {"alpha": alpha, "masses": masses})
        assert main(["exclude", "--input", inp]) == 0
        out += capsys.readouterr().out
    assert _sha(out) == CERTIFY_DIGESTS[family, n]


def test_scan_json_frozen_stdout(capsys):
    assert main(["scan", "--n-min", "3", "--n-max", "40", "--alpha", "0.5", "1", "3",
                 "--format", "json"]) == 0
    assert _sha(capsys.readouterr().out) == WRITER_DIGESTS["scan-json"]


# 12 alphas drawn U(0.1, 3) with seed 300, as the benchmark's scan passes them
SCAN_ALPHAS_12 = [
    "2.044073257139385", "1.7237885623897595", "1.2013829362482749",
    "0.8301768155215001", "2.2845133044547388", "2.510597471782001",
    "1.485660665724005", "2.1155613868961036", "1.5946534673881574",
    "1.712657556493213", "0.9686363977893567", "1.425057613293522",
]

# SHA-256 of stdout, taken while the scan still built one RegionCell per
# grid cell and the sine tables came from math.sin
GRID_DIGESTS = {
    "scan-300-csv": "d30de3ebf881c3f24340de38e570bebed8b9d66c5fa615e205dc7f34a1991725",
    "scan-300-json": "a84beb3b93438306ef58f73dc6e0655405a2a833dce30f336d3cd15cddfd8c5a",
    "scan-1000-csv": "b6f84334081447fd8d2f1b0aca630f33d8accaa42c2380dc75fc632e96a55708",
    "alpha-star-3": "f95fe89b1c5c7e4a35d3213a30d3333c2ef0f0cb40bdd71e9aaa9fe18ea928d0",
    "alpha-star-10": "6e4c77f4b00131db3943b06dea24f9501604d153c8e39dec32611893276d7e0d",
    "alpha-star-500": "8ac62385370e2fcd9a0d3759305315272d448e387ede548317db4ee2288414d5",
    "alpha-star-1000": "b993d101885291bf898ff980e9e2afad7080eca2def0f144d2eca18c61dae941",
    # taken while every padded sine of a grid block had a pow of its own:
    # the benchmark's n range at 12 alphas, the integer ones of (1/s)**alpha
    # among them, and a grid of several blocks
    "scan-300-mixed-csv": "80d151de977c39f4c8a4993fc0624b1b444b4b266664bdc41d76e474aa5dc9ba",
    "scan-1000-blocks-csv": "be73f814f3bd9ad8ebc363356bc402f0e1156749d19719fecca27de5be9abf0f",
    # the CI smoke step "Smoke scan", written as a file by --output
    "scan-20-csv": "c92ff11d2159df5ddc0cb1bbd719345376695fe53491cd7a1eae268248acbd8b",
}

# the CI smoke step "Smoke scan at n = 300" passes these in a fresh process
SCAN_ALPHAS_MIXED = ["0.25", "0.5", "1", "1.5", "2", "2.25", "2.7", "3", "3.14159", "4",
                     "5", "7.5"]


GRID_ARGV = {
    "scan-300-csv": ["scan", "--n-min", "3", "--n-max", "300", "--alpha", *SCAN_ALPHAS_12],
    "scan-300-json": ["scan", "--n-min", "3", "--n-max", "300", "--alpha", *SCAN_ALPHAS_12,
                      "--format", "json"],
    "scan-1000-csv": ["scan", "--n-min", "3", "--n-max", "1000",
                      "--alpha", "0.5", "1", "2", "2.7", "3", "4"],
    "scan-300-mixed-csv": ["scan", "--n-min", "3", "--n-max", "300",
                           "--alpha", *SCAN_ALPHAS_MIXED],
    "scan-1000-blocks-csv": ["scan", "--n-min", "3", "--n-max", "1000",
                             "--alpha", "0.5", "1", "2.5"],
    "scan-20-csv": ["scan", "--n-min", "3", "--n-max", "20", "--alpha", "0.5", "1", "2"],
    **{f"alpha-star-{n}": ["alpha-star", "--n", str(n)] for n in (3, 10, 500, 1000)},
}


@pytest.mark.parametrize("key", list(GRID_DIGESTS))
def test_grid_frozen_stdout(capsys, key):
    assert main(GRID_ARGV[key]) == 0
    assert _sha(capsys.readouterr().out) == GRID_DIGESTS[key]


def test_ci_smoke_checks_match_the_frozen_outputs_here():
    # every byte a CI smoke step checks is checked by a tier-1 test too, so
    # the workflow's digests cannot drift from the tests'
    tests = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(tests, "..", ".github", "workflows", "tests.yml")) as fh:
        workflow = fh.read()
    frozen = ""
    for name in ("test_cli.py", "test_scripts.py"):
        with open(os.path.join(tests, name)) as fh:
            frozen += fh.read()
    digests = re.findall(r"\b[0-9a-f]{64}\b", workflow)
    assert digests
    assert [d for d in digests if d not in frozen] == []
    star = re.search(r"printf '%s\\n' '(.*)' \| cmp - star\.json", workflow)
    assert star.group(1) + "\n" == ALPHA_STAR_6


# SHA-256 of alpha-star stdout, taken while every bisection step still
# evaluated g with the scalar kernel; the first is over n = 3..1000 at the
# default tol, one call after another
ALPHA_STAR_SWEEP_DIGEST = "8cae5c7c98cbf4e47c3eadc68a58aae309239a798e94a682dcb70c16f5847f8d"

ALPHA_STAR_DIGESTS = {
    (2000, None): "6136f2541a214f0a5c219d2b3559bdf63521e733a721405ad1139e81f7322116",
    (4000, None): "1962885c711f126f209f59ebeba1c8fa0f06088de32e048fa26c251dd14b8bfc",
    (10000, None): "82ae406bff267dbeb855209e1b5b6a142366bedcbb8bfcddb290be68599b5593",
    (6, "1e-15"): "ddd94c4797033534f08159dbe6f10a286452a95b90932af1c0ea35cbf83cbe5d",
    (500, "1e-15"): "ebee08fd055c6a1fb63f443baf696906ea339374e8323c40644daac02539e61f",
    (2000, "1e-15"): "ea90c52e6d15f3b3218cf762d85995f2db942802721c2ab89a617c4a622a5dd8",
    (4000, "1e-15"): "6e0b192867764e5925190e047f369f6e37651afef7a012d313bbab2c4abe3d85",
    (10000, "1e-15"): "a8da2bea92bff0f87bb0207d113b9c4d43c5a936794458814094cb6f0d9cdd1c",
    (6, "1e-6"): "e6b3526c5f80d52b287118e9b75eaed5695207b8a52662a537d12a4e3564e9ea",
    (500, "1e-6"): "431b9578b894d2dc59ed7eab7a0bd849e8ffed5e8c3071e91352da266c241baa",
    (2000, "1e-6"): "ee29c49be2a40c4798a5ff0364cf140cfcf4b143bcd37a0a154bf53be306f827",
    (4000, "1e-6"): "204264145eefb532e63f62e3f865832967dc0ba2dbc03b1a01735997cdea7095",
    (10000, "1e-6"): "c0403901bae872c3db5332eb2d3340c3fbe1d8d75ecec53311020512ec35d291",
    # a zero tol is met only where the residual comes out exactly 0
    (6, "0"): "2b090c43d053f5006576d084fa223ce628db4a07b4f0f09ab6eb63c499535b99",
    (500, "0"): "e44ce3731d0c663420e07f8a5a7ee3587c95e58b521aca1838914b1f113167cb",
    (2000, "0"): "bda78ebdeb6c606edac29b7afcb5c8ae9cd736840a6ece74a696b79103f7ce91",
    (4000, "0"): "97373ac3ff431e9ebe386cabeb9fa6c633e65a99245ceaeb93509e5152cae7bb",
    (10000, "0"): "13e2e2a39efe4032e2c749af43b1387d6c22d3f37f4714a998da089e4a760542",
}


def test_alpha_star_sweep_frozen_stdout(capsys):
    out = []
    for n in range(3, 1001):
        assert main(["alpha-star", "--n", str(n)]) == 0
        out.append(capsys.readouterr().out)
    assert _sha("".join(out)) == ALPHA_STAR_SWEEP_DIGEST


@pytest.mark.parametrize("n, tol", list(ALPHA_STAR_DIGESTS))
def test_alpha_star_frozen_digest(capsys, n, tol):
    argv = ["alpha-star", "--n", str(n)] + ([] if tol is None else ["--tol", tol])
    assert main(argv) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert _sha(captured.out) == ALPHA_STAR_DIGESTS[n, tol]


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


def test_minimize_output_file_frozen(tmp_path, capsys):
    masses = np.random.default_rng(64).uniform(0.5, 2.0, 64)
    inp = write_json(tmp_path / "m.json", {"alpha": 0.5, "masses": masses.tolist()})
    out = tmp_path / "result.json"
    assert main(["minimize", "--input", inp, "--output", str(out)]) == 0
    assert capsys.readouterr().out == ""
    assert hashlib.sha256(out.read_bytes()).hexdigest() == WRITER_DIGESTS["minimize-output"]


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
