"""Command line front end.

Subcommands: minimize, verify, exclude, spectrum, scan, alpha-star.
Input configurations are JSON objects {"alpha": ..., "masses": [...]}
with an optional "angles" array; outputs are JSON (or CSV for scan) with
floats at 17 significant digits, byte-stable across identical runs. Exit
codes: 0 on success, 2 for domain or input errors, 3 for convergence
failures.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass

import numpy as np

from .errors import CocircularError, ConvergenceFailure, DomainError
from .geometry import AngleConfiguration, MassVector
from .minimizer import minimize_f_k
from .potential import AuxiliaryFunctional
from .scanner import alpha_star, condition_threshold, g_value, scan_region
from .spectral import circulant_spectrum
from .symmetry import GroupElement, exclusion_verdicts
from .verifier import verify_cc


@dataclass
class RunConfig:
    """Parsed invocation; ``run`` turns one into an exit code."""

    command: str
    alpha: float | None = None
    alphas: tuple = ()
    k_override: float | None = None
    input_path: str | None = None
    output_path: str | None = None
    csv_path: str | None = None
    tol: float | None = None
    n: int | None = None
    n_min: int | None = None
    n_max: int | None = None
    format: str = "json"


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json(value) -> str:
    """Serialize with deterministic 17-significant-digit floats."""
    if isinstance(value, bool) or value is None:
        return json.dumps(value)
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, dict):
        items = ",".join(f"{json.dumps(str(k))}:{_json(v)}" for k, v in value.items())
        return "{" + items + "}"
    if isinstance(value, (list, tuple, np.ndarray)):
        return "[" + ",".join(_json(v) for v in value) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _load_problem(cfg: RunConfig, need_angles: bool = False):
    if not cfg.input_path:
        raise DomainError("this command needs --input")
    if cfg.input_path == "-":
        data = json.load(sys.stdin)
    else:
        with open(cfg.input_path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("input must be a JSON object")
    alpha = cfg.alpha if cfg.alpha is not None else data.get("alpha")
    if alpha is None:
        raise DomainError('input needs an "alpha" value (or pass --alpha)')
    if "masses" not in data:
        raise DomainError('input needs a "masses" array')
    angles = data.get("angles")
    try:
        alpha = float(alpha)
        masses = np.asarray(data["masses"], dtype=float)
        if angles is not None:
            angles = np.asarray(angles, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"alpha, masses and angles must be numbers: {exc}") from None
    masses = MassVector(masses)
    if angles is not None:
        angles = AngleConfiguration(angles)
    if need_angles and angles is None:
        raise DomainError('this command needs an "angles" array in the input')
    return alpha, masses, angles


def _emit(cfg: RunConfig, text: str) -> None:
    path = cfg.csv_path or cfg.output_path
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_json(witness):
    if witness is None:
        return None
    if isinstance(witness, GroupElement):
        return {"kind": "group", "h": witness.h, "l": witness.l}
    return {"kind": "swap", "pair": list(witness)}


def _verdict_json(v):
    return {
        "excluded": v.excluded,
        "witness": _witness_json(v.witness),
        "margin": v.margin,
        "certificates": [
            {"witness": _witness_json(w), "margin": mg} for w, mg in v.certificates
        ],
    }


def _cmd_minimize(cfg: RunConfig) -> str:
    alpha, masses, init = _load_problem(cfg)
    aux = AuxiliaryFunctional(alpha, cfg.k_override)
    result = minimize_f_k(aux, masses, init,
                          grad_tol=cfg.tol if cfg.tol is not None else 1e-11)
    return _json({
        "alpha": aux.alpha,
        "k": aux.k,
        "masses": masses.masses,
        "angles": result.theta_m.angles,
        "f_value": result.f_value,
        "grad_norm": result.grad_norm,
        "iterations": result.iterations,
        "converged": result.converged,
    }) + "\n"


def _cmd_verify(cfg: RunConfig) -> str:
    alpha, masses, config = _load_problem(cfg, need_angles=True)
    report = verify_cc(alpha, masses, config,
                       tol=cfg.tol if cfg.tol is not None else 1e-9)
    return _json({
        "alpha": alpha,
        "masses": masses.masses,
        "angles": config.angles,
        "tangential_residual": report.tangential_residual,
        "radial_spread": report.radial_spread,
        "center_norm": report.center_norm,
        "lambda_tilde": report.lambda_tilde,
        "tolerance": report.tolerance,
        "is_cc": report.is_cc,
    }) + "\n"


def _cmd_exclude(cfg: RunConfig) -> str:
    alpha, masses, _ = _load_problem(cfg)
    aux = AuxiliaryFunctional(alpha, cfg.k_override)
    group, swap = exclusion_verdicts(aux, masses)
    swap_json = _verdict_json(swap)
    swap_json["inconsistent"] = swap.inconsistent
    return _json({
        "alpha": aux.alpha,
        "k": aux.k,
        "masses": masses.masses,
        "theta_m": group.theta_m.angles,
        "f_value": group.f_value,
        "excluded": group.excluded or swap.excluded,
        "group": _verdict_json(group),
        "swap": swap_json,
    }) + "\n"


def _cmd_spectrum(cfg: RunConfig) -> str:
    if cfg.n is None or cfg.alpha is None:
        raise DomainError("spectrum needs --n and --alpha")
    aux = AuxiliaryFunctional(cfg.alpha, cfg.k_override)
    spec = circulant_spectrum(aux, cfg.n)
    return _json(spec.eigenvalues) + "\n"


def _cmd_scan(cfg: RunConfig) -> str:
    if cfg.n_min is None or cfg.n_max is None or not cfg.alphas:
        raise DomainError("scan needs --n-min, --n-max, and --alpha")
    if cfg.n_min > cfg.n_max:
        raise DomainError("--n-min must not exceed --n-max")
    cells = scan_region(range(cfg.n_min, cfg.n_max + 1), cfg.alphas)
    if cfg.format == "json" and not cfg.csv_path:
        return _json([
            {"n": c.n, "alpha": c.alpha, "g_value": c.g_value,
             "threshold": c.threshold, "holds": c.holds}
            for c in cells
        ]) + "\n"
    lines = ["n,alpha,g_value,threshold,holds"]
    for c in cells:
        lines.append(
            f"{c.n},{_fmt(c.alpha)},{_fmt(c.g_value)},{_fmt(c.threshold)},"
            f"{str(c.holds).lower()}"
        )
    return "\n".join(lines) + "\n"


def _cmd_alpha_star(cfg: RunConfig) -> str:
    if cfg.n is None:
        raise DomainError("alpha-star needs --n")
    tol = cfg.tol if cfg.tol is not None else 1e-12
    root = alpha_star(cfg.n, tol)
    g = g_value(cfg.n, root)
    return _json({
        "n": cfg.n,
        "alpha_star": root,
        "g_value": g,
        "threshold": condition_threshold(root),
        "residual": abs(g - condition_threshold(root)),
        "tolerance": tol,
    }) + "\n"


_COMMANDS = {
    "minimize": _cmd_minimize,
    "verify": _cmd_verify,
    "exclude": _cmd_exclude,
    "spectrum": _cmd_spectrum,
    "scan": _cmd_scan,
    "alpha-star": _cmd_alpha_star,
}


def run(cfg: RunConfig) -> int:
    """Execute one parsed invocation and return its exit code."""
    _emit(cfg, _COMMANDS[cfg.command](cfg))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocircular",
        description="centered co-circular central configurations of "
                    "power-law n-body problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, **kwargs):
        p = sub.add_parser(name, **kwargs)
        p.add_argument("--output", help="write the result here instead of stdout")
        return p

    p = add("minimize", help="minimize the auxiliary functional")
    p.add_argument("--input", required=True, help="JSON problem file ('-' for stdin)")
    p.add_argument("--alpha", type=float, help="override the input file's alpha")
    p.add_argument("--k", type=float, help="convexity constant (default tight)")
    p.add_argument("--tol", type=float, help="relative gradient tolerance")

    p = add("verify", help="check the central-configuration equations")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--tol", type=float, help="residual tolerance (default 1e-9)")

    p = add("exclude", help="symmetry-based exclusion scan")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=float)

    p = add("spectrum", help="circulant spectrum at the regular n-gon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=float)

    p = add("scan", help="scan the uniqueness condition over (n, alpha)")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--csv", help="write CSV here")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("alpha-star", help="critical exponent for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, help="bisection residual (default 1e-12)")
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    alphas = ()
    alpha = getattr(args, "alpha", None)
    if args.command == "scan":
        alphas = tuple(alpha or ())
        alpha = None
    return RunConfig(
        command=args.command,
        alpha=alpha,
        alphas=alphas,
        k_override=getattr(args, "k", None),
        input_path=getattr(args, "input", None),
        output_path=getattr(args, "output", None),
        csv_path=getattr(args, "csv", None),
        tol=getattr(args, "tol", None),
        n=getattr(args, "n", None),
        n_min=getattr(args, "n_min", None),
        n_max=getattr(args, "n_max", None),
        format=getattr(args, "format", "json"),
    )


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return run(config_from_args(args))
    except ConvergenceFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (CocircularError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
