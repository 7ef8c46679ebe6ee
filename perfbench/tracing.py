"""Span tracer for the traced run, installed from the benchmark's own files.

Each traced function is replaced, for the duration of one op, at every
name its callers use: every loaded ``cocircular`` module attribute that is
bound to the original function object. A name that no longer exists is
recorded as absent and reports zero calls; that is not an error.

A span's parent is the innermost open span of the same thread. A span
opened in a thread with no open span (the scanner's pool workers) takes
the innermost open span of the client thread as its parent, because the
client is blocked inside that call while the pool runs. Self time is a
span's duration minus the union of its children's intervals, so
overlapping children in pool threads are not subtracted twice.
"""

from __future__ import annotations

import importlib
import itertools
import sys
import threading
from collections import defaultdict
from dataclasses import dataclass
from time import perf_counter

# (module, attribute) of every traced function; the span name is
# "<module>.<attribute>".
TRACED = (
    ("geometry", "chord_matrix"),
    ("potential", "u_beta"),
    ("potential", "f_k_value"),
    ("potential", "grad_theta_f_k"),
    ("potential", "hessian_theta_f_k"),
    ("potential", "pair_weight_matrix"),
    ("minimizer", "minimize_f_k"),
    ("verifier", "verify_cc"),
    ("symmetry", "act_on_masses"),
    ("symmetry", "exclusion_by_group"),
    ("symmetry", "exclusion_by_swap"),
    ("spectral", "circulant_spectrum"),
    ("scanner", "g_value"),
    ("scanner", "scan_region"),
    ("scanner", "alpha_star"),
)
ROOT = "cli.main"

CHORD = "geometry.chord_matrix"
EVALS = ("potential.f_k_value", "potential.grad_theta_f_k", "potential.hessian_theta_f_k")
MINIMIZE = "minimizer.minimize_f_k"
EXCLUSIONS = ("symmetry.exclusion_by_group", "symmetry.exclusion_by_swap")

# (metric name, unit, better) in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("cli.self_ms", "ms", "lower"),
    ("cli.stdout_bytes", "bytes", "lower"),
    ("cli.failed_frac", "frac", "lower"),
    ("geometry.chord_matrix.calls", "count", "lower"),
    ("geometry.chord_matrix.ms", "ms", "lower"),
    ("potential.f_k_value.calls", "count", "lower"),
    ("potential.f_k_value.ms", "ms", "lower"),
    ("potential.grad_theta.calls", "count", "lower"),
    ("potential.grad_theta.ms", "ms", "lower"),
    ("potential.hessian_theta.calls", "count", "lower"),
    ("potential.hessian_theta.ms", "ms", "lower"),
    ("potential.u_beta.calls", "count", "lower"),
    ("potential.pair_weight_matrix.calls", "count", "lower"),
    ("potential.pair_weight_matrix.ms", "ms", "lower"),
    ("potential.chords_per_eval", "ratio", "lower"),
    ("minimizer.solves", "count", "lower"),
    ("minimizer.iterations", "count", "lower"),
    ("minimizer.failed", "count", "lower"),
    ("minimizer.trials_per_iter", "ratio", "lower"),
    ("minimizer.self_ms", "ms", "lower"),
    ("verifier.verify_cc.calls", "count", "lower"),
    ("verifier.verify_cc.ms", "ms", "lower"),
    ("symmetry.minimize_per_exclude", "ratio", "lower"),
    ("symmetry.group.self_ms", "ms", "lower"),
    ("symmetry.act_on_masses.calls", "count", "lower"),
    ("symmetry.certificates", "count", "higher"),
    ("symmetry.swap.self_ms", "ms", "lower"),
    ("spectral.circulant_spectrum.self_ms", "ms", "lower"),
    ("scanner.g_value.calls", "count", "lower"),
    ("scanner.g_value.ms", "ms", "lower"),
    ("scanner.scan_region.self_ms", "ms", "lower"),
    ("scanner.alpha_star.g_calls", "ratio", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
)

# Per-op sums: metric name -> (span name, "calls" | "ms" | "self_ms").
_PER_OP = {
    "geometry.chord_matrix.calls": (CHORD, "calls"),
    "geometry.chord_matrix.ms": (CHORD, "ms"),
    "potential.f_k_value.calls": ("potential.f_k_value", "calls"),
    "potential.f_k_value.ms": ("potential.f_k_value", "ms"),
    "potential.grad_theta.calls": ("potential.grad_theta_f_k", "calls"),
    "potential.grad_theta.ms": ("potential.grad_theta_f_k", "ms"),
    "potential.hessian_theta.calls": ("potential.hessian_theta_f_k", "calls"),
    "potential.hessian_theta.ms": ("potential.hessian_theta_f_k", "ms"),
    "potential.u_beta.calls": ("potential.u_beta", "calls"),
    "potential.pair_weight_matrix.calls": ("potential.pair_weight_matrix", "calls"),
    "potential.pair_weight_matrix.ms": ("potential.pair_weight_matrix", "ms"),
    "minimizer.solves": (MINIMIZE, "calls"),
    "minimizer.self_ms": (MINIMIZE, "self_ms"),
    "verifier.verify_cc.calls": ("verifier.verify_cc", "calls"),
    "verifier.verify_cc.ms": ("verifier.verify_cc", "ms"),
    "symmetry.group.self_ms": ("symmetry.exclusion_by_group", "self_ms"),
    "symmetry.act_on_masses.calls": ("symmetry.act_on_masses", "calls"),
    "symmetry.swap.self_ms": ("symmetry.exclusion_by_swap", "self_ms"),
    "spectral.circulant_spectrum.self_ms": ("spectral.circulant_spectrum", "self_ms"),
    "scanner.g_value.calls": ("scanner.g_value", "calls"),
    "scanner.g_value.ms": ("scanner.g_value", "ms"),
    "scanner.scan_region.self_ms": ("scanner.scan_region", "self_ms"),
    "cli.self_ms": (ROOT, "self_ms"),
}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    t0: float
    t1: float
    result: object
    error: BaseException | None


def _union_length(intervals) -> float:
    total, end = 0.0, float("-inf")
    for a, b in sorted(intervals):
        if b <= a or b <= end:
            continue
        total += b - max(a, end)
        end = b
    return total


class Tracer:
    """Records spans of the traced functions while installed."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count()
        self._client = threading.get_ident()
        self._client_stack: list[int] = []
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self.absent: list[str] = []
        self._targets = []
        for module, attr in TRACED:
            try:
                fn = getattr(importlib.import_module(f"cocircular.{module}"), attr)
            except (ImportError, AttributeError):
                self.absent.append(f"{module}.{attr}")
                continue
            self._targets.append((fn, self.wrap(f"{module}.{attr}", fn)))

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._client:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = self._client_stack[-1] if self._client_stack else None
            sid = next(self._ids)
            stack.append(sid)
            result = error = None
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                t1 = perf_counter()
                stack.pop()
                self.spans.append(Span(sid, parent, name, t0, t1, result, error))
        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        wrappers = {id(fn): (fn, wrapper) for fn, wrapper in self._targets}
        for module in [m for k, m in sys.modules.items()
                       if k == "cocircular" or k.startswith("cocircular.")]:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    setattr(module, attr, wrappers[id(value)][1])
                    self._patches.append((module, attr, value))

    def uninstall(self) -> None:
        for module, attr, fn in reversed(self._patches):
            setattr(module, attr, fn)
        self._patches.clear()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans


class LayerStats:
    """Accumulates per-layer sums over traced ops."""

    def __init__(self):
        self.sums = defaultdict(float)
        self.ops = 0

    def add_op(self, spans: list[Span], stdout_bytes: int, failed: bool,
               excludes: int) -> None:
        s = self.sums
        self.ops += 1
        s["stdout_bytes"] += stdout_bytes
        s["failed"] += failed
        s["excludes"] += excludes
        by_id = {sp.sid: sp for sp in spans}
        children = defaultdict(list)
        for sp in spans:
            children[sp.parent].append(sp)

        def ancestors(sp):
            while sp.parent is not None and sp.parent in by_id:
                sp = by_id[sp.parent]
                yield sp

        for sp in spans:
            s[(sp.name, "calls")] += 1
            dur = sp.t1 - sp.t0
            s[(sp.name, "ms")] += 1e3 * dur
            kids = [(max(c.t0, sp.t0), min(c.t1, sp.t1)) for c in children[sp.sid]]
            s[(sp.name, "self_ms")] += 1e3 * (dur - _union_length(kids))
            names = [a.name for a in ancestors(sp)]
            if sp.name == CHORD and any(a in EVALS for a in names):
                s["chords_in_evals"] += 1
            if sp.name in EVALS and not any(a in EVALS for a in names):
                s["evals"] += 1
            if sp.name == "potential.f_k_value" and sp.parent in by_id \
                    and by_id[sp.parent].name == MINIMIZE:
                s["f_in_minimize"] += 1
            if sp.name == MINIMIZE:
                if any(a in EXCLUSIONS for a in names):
                    s["minimize_in_exclude"] += 1
                if sp.error is not None:
                    s["minimize_failed"] += 1
                res = sp.result if sp.error is None else getattr(sp.error, "result", None)
                s["iterations"] += getattr(res, "iterations", 0) or 0
                if any(c.name == "potential.f_k_value" for c in children[sp.sid]):
                    s["minimize_started"] += 1
            if sp.name in EXCLUSIONS and sp.error is None:
                s["certificates"] += len(getattr(sp.result, "certificates", ()))
            if sp.name == "scanner.g_value" and "scanner.alpha_star" in names:
                s["g_in_alpha_star"] += 1

    def metrics(self, overhead_frac: float) -> dict:
        s, ops = self.sums, max(self.ops, 1)

        def ratio(a, b):
            return a / b if b else 0.0

        values = {name: s[key] / ops for name, key in _PER_OP.items()}
        values.update({
            "cli.stdout_bytes": s["stdout_bytes"] / ops,
            "cli.failed_frac": s["failed"] / ops,
            "potential.chords_per_eval": ratio(s["chords_in_evals"], s["evals"]),
            "minimizer.iterations": ratio(s["iterations"], s[(MINIMIZE, "calls")]),
            "minimizer.failed": s["minimize_failed"] / ops,
            "minimizer.trials_per_iter": ratio(s["f_in_minimize"] - s["minimize_started"],
                                               s["iterations"]),
            "symmetry.minimize_per_exclude": ratio(s["minimize_in_exclude"], s["excludes"]),
            "symmetry.certificates": s["certificates"] / ops,
            "scanner.alpha_star.g_calls": ratio(s["g_in_alpha_star"],
                                                s[("scanner.alpha_star", "calls")]),
            "trace.overhead_frac": overhead_frac,
        })
        return {name: {"value": values[name], "unit": unit}
                for name, unit, _ in PER_LAYER}
