"""Command line front end.

Subcommands: minimize, verify, exclude, spectrum, scan, alpha-star.
``build_parser`` declares each subcommand once, with its flags, their
defaults and its handler; a handler takes the parsed namespace and
returns the text to write. Input configurations are JSON objects
{"alpha": ..., "masses": [...]} with an optional "angles" array; outputs
are JSON (or CSV for scan) with floats at 17 significant digits,
byte-stable across identical runs. Exit codes: 0 on success, 2 for
domain or input errors (argparse also exits 2 on a bad command line), 3
for convergence failures.

``main(argv)`` may be called any number of times in one process: the
first call builds the parser and later calls reuse it, so a call costs
one parse. ``build_parser()`` still returns a new parser on every call.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import CocircularError, ConvergenceFailure, DomainError
from .geometry import AngleConfiguration, MassVector, _arity
from .minimizer import minimize_f_k
from .potential import AuxiliaryFunctional
from .scanner import _alpha_star, _grid, condition_threshold
from .spectral import circulant_spectrum
from .symmetry import GroupElement, exclusion_verdicts
from .verifier import verify_cc


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


def _json(value) -> str:
    """Serialize with deterministic 17-significant-digit floats.

    A 1-D float array is one join over its formatted values. Dict keys
    are ASCII identifiers and are quoted as they are.
    """
    if isinstance(value, np.ndarray):
        return "[" + ",".join([format(v, ".17g") for v in value.tolist()]) + "]"
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt(value)
    if isinstance(value, dict):
        return "{" + ",".join([f'"{k}":{_json(v)}' for k, v in value.items()]) + "}"
    if isinstance(value, list):
        return "[" + ",".join([_json(v) for v in value]) + "]"
    raise TypeError(f"cannot serialize {type(value)!r}")


def _check_numbers(value) -> None:
    """Raise TypeError unless value is a JSON number or an array of them.

    ``float`` and ``np.asarray`` would read true as 1.0 and "1" as 1.0.
    """
    if type(value) is list:
        if not {int, float}.issuperset(map(type, value)):
            for v in value:
                _check_numbers(v)
    elif type(value) is not float and type(value) is not int:
        raise TypeError(f"got {json.dumps(value)}")


def _load_problem(args: argparse.Namespace, need_angles: bool = False):
    if args.input == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.input, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise DomainError("input must be a JSON object")
    alpha = args.alpha if args.alpha is not None else data.get("alpha")
    if alpha is None:
        raise DomainError('input needs an "alpha" value (or pass --alpha)')
    if "masses" not in data:
        raise DomainError('input needs a "masses" array')
    angles = data.get("angles")
    try:
        _check_numbers([alpha, data["masses"], [] if angles is None else angles])
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


def _emit(args: argparse.Namespace, text: str) -> None:
    # scan (and scripts/region_map.py) has --csv; it wins over --output
    path = getattr(args, "csv", None) or args.output
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _witness_json(witness) -> str:
    if witness is None:
        return "null"
    if isinstance(witness, GroupElement):
        return f'{{"kind":"group","h":{witness.h},"l":{witness.l}}}'
    j, k = witness
    return f'{{"kind":"swap","pair":[{j},{k}]}}'


def _verdict_json(v, inconsistent: bool | None = None) -> str:
    """One verdict object, with an ``inconsistent`` field unless it is None."""
    certificates = ",".join([
        f'{{"witness":{_witness_json(w)},"margin":{_fmt(mg)}}}' for w, mg in v.certificates
    ])
    flag = "" if inconsistent is None else f',"inconsistent":{_json(inconsistent)}'
    return (f'{{"excluded":{_json(v.excluded)},"witness":{_witness_json(v.witness)},'
            f'"margin":{_fmt(v.margin)},"certificates":[{certificates}]{flag}}}')


def _cmd_minimize(args: argparse.Namespace) -> str:
    alpha, masses, init = _load_problem(args)
    aux = AuxiliaryFunctional(alpha, args.k)
    result = minimize_f_k(aux, masses, init, grad_tol=args.tol)
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


def _cmd_verify(args: argparse.Namespace) -> str:
    alpha, masses, config = _load_problem(args, need_angles=True)
    report = verify_cc(alpha, masses, config, tol=args.tol)
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


def _cmd_exclude(args: argparse.Namespace) -> str:
    alpha, masses, _ = _load_problem(args)
    aux = AuxiliaryFunctional(alpha, args.k)
    group, swap = exclusion_verdicts(aux, masses)
    return (
        f'{{"alpha":{_json(aux.alpha)},"k":{_json(aux.k)},"masses":{_json(masses.masses)},'
        f'"theta_m":{_json(group.theta_m.angles)},"f_value":{_json(group.f_value)},'
        f'"excluded":{_json(group.excluded or swap.excluded)},'
        f'"group":{_verdict_json(group)},"swap":{_verdict_json(swap, swap.inconsistent)}}}\n'
    )


def _cmd_spectrum(args: argparse.Namespace) -> str:
    aux = AuxiliaryFunctional(args.alpha, args.k)
    return _json(circulant_spectrum(aux, args.n)) + "\n"


def _scan_cells(grid, head: str, pre: str, post: str) -> list[str]:
    """Each grid cell as head + n + pre(alpha) + g + post(threshold, holds).

    pre and post repeat down each alpha's column, so they are formatted
    once per alpha.
    """
    ns, alphas, thresholds, rows = grid
    columns = [(pre.format(_fmt(a)), post.format(_fmt(t), "true"),
                post.format(_fmt(t), "false"), t) for a, t in zip(alphas, thresholds)]
    return [f"{head}{n}{alpha}{g:.17g}{yes if g <= t else no}"
            for n, row in zip(ns, rows) for (alpha, yes, no, t), g in zip(columns, row)]


def _scan_csv(grid) -> str:
    """The ``scan`` CSV text of a ``_grid`` result."""
    cells = _scan_cells(grid, "", ",{},", ",{},{}")
    return "\n".join(["n,alpha,g_value,threshold,holds", *cells]) + "\n"


def _scan_grid(n_min: int, n_max: int, alphas):
    """``_grid`` over n_min..n_max, refusing a reversed range or one past every array first."""
    if n_min > n_max:
        raise DomainError("--n-min must not exceed --n-max")
    _arity(n_max)
    return _grid(range(n_min, n_max + 1), alphas)


def _cmd_scan(args: argparse.Namespace) -> str:
    grid = _scan_grid(args.n_min, args.n_max, args.alpha)
    if args.format == "json" and not args.csv:
        cells = _scan_cells(grid, '{"n":', ',"alpha":{},"g_value":',
                            ',"threshold":{},"holds":{}}}')
        return "[" + ",".join(cells) + "]\n"
    return _scan_csv(grid)


def _cmd_alpha_star(args: argparse.Namespace) -> str:
    root, g = _alpha_star(args.n, args.tol)
    threshold = condition_threshold(root)
    return _json({
        "n": args.n,
        "alpha_star": root,
        "g_value": g,
        "threshold": threshold,
        "residual": abs(g - threshold),
        "tolerance": args.tol,
    }) + "\n"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cocircular",
        description="centered co-circular central configurations of "
                    "power-law n-body problems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(handler=handler)
        p.add_argument("--output", help="write the result here instead of stdout")
        return p

    p = add("minimize", _cmd_minimize, "minimize the auxiliary functional")
    p.add_argument("--input", required=True, help="JSON problem file ('-' for stdin)")
    p.add_argument("--alpha", type=float, help="override the input file's alpha")
    p.add_argument("--k", type=float, help="convexity constant (default tight)")
    p.add_argument("--tol", type=float, default=1e-11,
                   help="stop once the gradient norm is at most tol*|f| "
                        "(default %(default)s)")

    p = add("verify", _cmd_verify, "check the central-configuration equations")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="residual tolerance (default %(default)s)")

    p = add("exclude", _cmd_exclude, "symmetry-based exclusion scan")
    p.add_argument("--input", required=True)
    p.add_argument("--alpha", type=float)
    p.add_argument("--k", type=float)

    p = add("spectrum", _cmd_spectrum, "circulant spectrum at the regular n-gon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=float)

    p = add("scan", _cmd_scan, "scan the uniqueness condition over (n, alpha)")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--csv", help="write CSV here")
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("alpha-star", _cmd_alpha_star, "critical exponent for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="bisection residual (default %(default)s); 0 usually "
                        "exits 3 once 52 halvings leave adjacent doubles")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call rather than at import."""
    return build_parser()


def _failed(exc: Exception) -> int:
    """Print exc's one ``error:`` line; exit code 3 for a failed solve, 2 otherwise."""
    print(f"error: {exc}", file=sys.stderr)
    return 3 if isinstance(exc, ConvergenceFailure) else 2


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        # each library entry point owns its numpy error state and raises a
        # typed error on overflow, with no numpy warning ahead of it
        text = args.handler(args)
        _emit(args, text)
    except (CocircularError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _failed(exc)
    return 0

