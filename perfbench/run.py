#!/usr/bin/env python3
"""Benchmark of the cocircular CLI: one seeded closed-loop client per run.

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0

Run it from anywhere; it imports ``cocircular`` from the ``src`` directory
next to this one and refuses to run without it. Each op calls
``cocircular.cli.main(argv)`` in process with stdout captured, one op at a
time. Workloads, their inputs and the output checks are in
``workloads.py``; the traced run's spans are in ``tracing.py``.

With ``--trace 0`` nothing is installed and the last line of stdout holds
the end-to-end metrics; with ``--trace 1`` every op runs once untraced and
once traced, in alternating order, and the last line holds the per-layer
metrics. Each run also writes a record (environment, per-command latency
table, stdout digest, absent traced names) to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

# numpy is imported in main(), after cocircular: the program's own import of
# numpy must be the first, as under ``python -m cocircular``, because OpenBLAS
# reads its thread variables then.
np = None

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_PROBES = 9  # spread evenly over the run's ops
TRACED_PASS_COST = 3  # a traced pass runs every op twice, once with spans
SETUP_TIMEOUT_S = 60
# setup_s is in seconds on a host where reference_ms() reads this much.
REF_NOMINAL_MS = 1.0
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "COCIRCULAR_THREADS")


def reference_ms() -> float:
    """Best of three timings of a fixed pure-Python loop: the host-speed yardstick.

    The benchmark's host changes speed by 20-50% as other tenants come and
    go, in phases that last from under a second to minutes. A latency
    divided by the mean of this kernel's times just before and just after
    it moves with the program and not with the host. Of the kernels tried
    (this loop, a numpy call on 65536 doubles, 60 numpy calls on 32 doubles)
    the loop tracked that drift best on every workload's commands; see
    README.md.
    """
    best = math.inf
    for _ in range(3):
        t0 = perf_counter()
        s = 0.0
        for i in range(15000):
            s += i * 0.5
        best = min(best, perf_counter() - t0)
    return 1e3 * best


def import_package():
    """Import ``cocircular`` from this checkout's ``src``, never from elsewhere."""
    package = SRC / "cocircular"
    if not (package / "__init__.py").is_file():
        sys.exit(f"run.py: {package} not found; run from a full checkout")
    if "numpy" in sys.modules:
        sys.exit("run.py: numpy was imported before cocircular")
    sys.path.insert(0, str(SRC))
    import cocircular
    if Path(cocircular.__file__).resolve().parent != package.resolve():
        sys.exit(f"run.py: imported cocircular from {cocircular.__file__}, not {package}")
    return cocircular


CRASH = -1  # exit code recorded for an exception that escaped cli.main


def call_cli(main, argv, stdin):
    """One in-process CLI call; returns (exit code, stdout, stderr, ms)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin or "")
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            t0 = perf_counter()
            try:
                rc = main(argv)
            except SystemExit as exc:  # argparse rejected the argv
                rc = exc.code if isinstance(exc.code, int) else 1
            except Exception as exc:  # a crash fails the run's check, see main()
                rc = CRASH
                err.write(f"uncaught {exc!r}")
            ms = 1e3 * (perf_counter() - t0)
    finally:
        sys.stdin = saved
    return rc, out.getvalue(), err.getvalue(), ms


def run_op(main, op, prev_marker):
    """Run the op's steps in order; stop at the first step that fails."""
    results, prev = [], None
    for step in op.steps:
        stdin = prev if step.stdin is prev_marker else step.stdin
        rc, out, err, ms = call_cli(main, step.argv, stdin)
        results.append((step.kind, rc, out, err, ms))
        if rc != 0:
            break
        prev = out
    return results


def percentile(values, q):
    return float(np.percentile(values, q))


def environment(cocircular):
    blas = {}
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": dep.get("name"), "version": dep.get("version")}
    except (TypeError, KeyError):
        pass
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "cocircular": getattr(cocircular, "__version__", None),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
    }


def setup_probe(workload: str) -> tuple[float, float]:
    """Wall time of a fresh interpreter that imports cocircular and runs one op.

    Returns the seconds and the mean of the reference times just before and
    after, by which setup_s is scaled as the op latencies are.
    """
    before = reference_ms()
    t0 = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--probe", "--workload", workload],
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
        timeout=SETUP_TIMEOUT_S)
    if proc.returncode != 0:
        sys.exit(f"run.py: set-up probe failed: {proc.stderr.strip()}")
    seconds = perf_counter() - t0
    return seconds, 0.5 * (before + reference_ms())


def warm_up(workloads, main, name):
    """The fixed first op of seed 0; a probe and the client both run it."""
    return run_op(main, workloads.INPUT_SETS[name](0)[0], workloads.PREV)


def main(argv=None) -> int:
    global np
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=("solve", "certify", "ngon"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    cocircular = import_package()
    import numpy as np
    import workloads
    from cocircular import cli

    if args.probe:
        warm_up(workloads, cli.main, args.workload)
        return 0

    env = environment(cocircular)
    warm_up(workloads, cli.main, args.workload)

    tracer = stats = root = None
    if args.trace:
        import tracing
        tracer, stats = tracing.Tracer(), tracing.LayerStats()
        root = tracer.wrap(tracing.ROOT, cli.main)

    # The client makes a fixed number of whole passes over the seed's input
    # set: about --seconds of work on the host PASS_S was measured on. The
    # op count does not depend on the host's speed, so neither do attempted
    # and failed, nor the number of repeats each input's minimum is over.
    # Each untraced execution's cost is its latency divided by the mean of
    # the reference times just before and after it. The untraced run also
    # starts a set-up probe before every SETUP_PROBES-th of its ops, so that
    # the probes meet the host's slow and fast phases alike; set-up time is
    # their minimum.
    inputs = workloads.INPUT_SETS[args.workload](args.seed)
    passes = max(1, round(args.seconds / workloads.PASS_S[args.workload]))
    if tracer is not None:
        passes = max(1, passes // TRACED_PASS_COST)
    total = passes * len(inputs)
    probe_at = [] if tracer is not None else [k * total // SETUP_PROBES
                                              for k in range(SETUP_PROBES)]
    runs = [[] for _ in inputs]  # per input: untraced (kind, rc, ms, cost) of each repeat
    first = [None] * len(inputs)  # per input: (exit codes, stdouts, stderrs) of the first run
    repeat_failures = []
    plain_ms = traced_ms = 0.0
    executions = 0
    refs = []
    setup = []

    def bracketed(op):
        before = reference_ms()
        results = run_op(cli.main, op, workloads.PREV)
        after = reference_ms()
        refs.extend((before, after))
        return results, 0.5 * (before + after)

    t_start = perf_counter()
    while executions < total:
        i = executions % len(inputs)
        if len(setup) < len(probe_at) and probe_at[len(setup)] == executions:
            setup.append(setup_probe(args.workload))
        op = inputs[i]
        if tracer is None:
            plain, ref = bracketed(op)
        else:
            traced_first = executions % 2 == 1
            if not traced_first:
                plain, ref = bracketed(op)
            tracer.install()
            try:
                traced = run_op(root, op, workloads.PREV)
            finally:
                tracer.uninstall()
            spans = tracer.take()
            if traced_first:
                plain, ref = bracketed(op)
            ok = all(r[1] == 0 for r in plain) and all(r[1] == 0 for r in traced)
            if ok:
                plain_ms += sum(r[4] for r in plain)
                traced_ms += sum(r[4] for r in traced)
            if [r[2] for r in traced] != [r[2] for r in plain]:
                repeat_failures.append(f"input {i}: traced stdout differs from untraced")
            stats.add_op(spans, sum(len(r[2].encode()) for r in traced), not ok,
                         sum(1 for s in op.steps if s.argv[0] == "exclude"))
        result = ([r[1] for r in plain], [r[2] for r in plain], [r[3] for r in plain])
        if first[i] is None:
            first[i] = result
        elif result[:2] != first[i][:2]:
            repeat_failures.append(f"input {i}: exit code or stdout changed between repeats")
        runs[i].append([(r[0], r[1], r[4], r[4] / ref) for r in plain])
        executions += 1
    elapsed = perf_counter() - t_start

    # Everything below is outside the timed ops. An op may fail only as
    # its input set says it does today (workloads.Op.known_failure); any
    # other non-zero exit, a crash included, makes the run incorrect.
    check_rng = np.random.default_rng(args.seed)
    check_failures = list(repeat_failures)
    samples = {}  # step kind -> per-input minimum ms over repeats
    costs = {}  # step kind -> per-input minimum cost over repeats
    passed_ops = passed_cost = 0.0  # over every execution of a passing input
    failures = 0
    digest = hashlib.sha256()
    for i, op in enumerate(inputs):
        rcs, outs, errs = first[i]
        digest.update("".join(outs).encode())
        if any(rcs):
            failures += len(runs[i])
            if not (op.known_failure and rcs[-1] == 2):
                check_failures.append(f"input {i}: {op.steps[len(rcs) - 1].kind} exited "
                                      f"{rcs[-1]}: {errs[-1].strip()[:200]}")
            continue
        reason = workloads.check_op(op, outs, check_rng)
        if reason:
            failures += len(runs[i])
            check_failures.append(f"input {i}: {reason}")
            continue
        for k, step in enumerate(op.steps):
            samples.setdefault(step.kind, []).append(min(r[k][2] for r in runs[i]))
            costs.setdefault(step.kind, []).append(min(r[k][3] for r in runs[i]))
        passed_ops += len(runs[i])
        passed_cost += sum(x[3] for r in runs[i] for x in r)

    slots = workloads.SLOTS[args.workload]
    for kind, slot in slots.items():
        if not costs.get(kind):
            sys.exit(f"run.py: no {kind} input passed; there is no {slot} latency to report")

    table = {}
    for kind, ms in sorted(samples.items()):
        table[kind.replace(".", "_").replace("-", "_")] = {
            "slot": slots.get(kind), "inputs": len(ms),
            "ms_p50": percentile(ms, 50), "ms_p90": percentile(ms, 90),
            "ref_p50": percentile(costs[kind], 50), "ref_p90": percentile(costs[kind], 90)}

    if tracer is None:
        setup_s = min(sec * REF_NOMINAL_MS / ref for sec, ref in setup)
        metrics = {"setup_s": {"value": setup_s, "unit": "s"},
                   "ops_per_kref": {"value": 1e3 * passed_ops / passed_cost, "unit": "1/kref"}}
        for kind, slot in slots.items():
            for q in (50, 90):
                metrics[f"{slot}_p{q}"] = {"value": percentile(costs[kind], q), "unit": "ref"}
    else:
        overhead = traced_ms / plain_ms - 1.0 if plain_ms else 0.0
        metrics = stats.metrics(overhead)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "setup_probes_s_and_ref_ms": setup,
        "inputs": len(inputs), "passes": passes, "attempted": executions,
        "reference_ms": {"median": statistics.median(refs), "min": min(refs),
                         "max": max(refs), "samples": len(refs)},
        "failed": failures, "failed_frac": failures / executions,
        "check_failures": check_failures[:20], "commands": table,
        "stdout_sha256": digest.hexdigest(),
        "traced_absent": tracer.absent if tracer else None, "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")

    print(f"workload {args.workload} seed {args.seed}: {len(inputs)} inputs, "
          f"{passes} passes, {executions} ops in {elapsed:.2f} s, {failures} failed "
          f"(failed_frac {failures / executions:.4f})")
    threads = " ".join(f"{k}={v}" for k, v in env["thread_env"].items())
    print(f"  python {env['python']}, numpy {env['numpy']}, blas {env['blas'].get('name')} "
          f"{env['blas'].get('version')}, nproc {env['nproc']}, {threads}")
    print(f"  reference kernel {record['reference_ms']['median']:.4f} ms "
          f"(median of {len(refs)}, range {min(refs):.4f}..{max(refs):.4f})")
    if setup:
        print(f"  set-up probes: {len(setup)}, fastest {min(sec for sec, _ in setup):.4f} s "
              f"as measured, {metrics['setup_s']['value']:.4f} s scaled to a "
              f"{REF_NOMINAL_MS} ms reference")
    for name, row in table.items():
        print(f"  {name + '_ms_p50':<24} {row['ms_p50']:10.3f} ms  p90 {row['ms_p90']:10.3f} ms"
              f"  = {row['ref_p50']:9.2f} / {row['ref_p90']:9.2f} ref"
              f"  inputs={row['inputs']:<4} slot={row['slot']}")
    for reason in check_failures[:5]:
        print(f"  check failed: {reason}")
    if tracer is not None and tracer.absent:
        print(f"  traced names absent: {', '.join(tracer.absent)}")
    print(f"  stdout sha256 of all {len(inputs)} inputs: {record['stdout_sha256']}")
    print(f"  record: {path}")
    print(json.dumps({"correct": not check_failures, "attempted": executions,
                      "failed": failures, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
