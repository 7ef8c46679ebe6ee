"""Command line front end.

Subcommands: minimize, verify, exclude, spectrum, scan, alpha-star.
``_parser`` declares each subcommand once, with its flags, their
defaults and its handler; a handler takes the parsed namespace and
returns the text to write. Input configurations are JSON objects
{"alpha": ..., "masses": [...]} with an optional "angles" array, and
alpha comes from the input alone. Outputs are JSON (or CSV for scan, by
``--format``), each written from ``%`` templates: ``%.17g`` gives the
bits of ``format(x, ".17g")``, so floats carry 17 significant digits,
byte-stable across identical runs. They go to stdout or to the path
every subcommand takes as ``--output``. Exit codes: 0 on success, 2 for
domain or input errors (argparse also exits 2 on a bad command line), 3
for convergence failures.

``main(argv)`` may be called any number of times in one process: the
first call builds the parser and later calls reuse it, so a call costs
one parse.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .errors import CocircularError, ConvergenceFailure, DomainError
from .geometry import AngleConfiguration, MassVector, _arity, _tolerance
from .minimizer import minimize_f_k
from .potential import AuxiliaryFunctional
from .scanner import _alpha_star, _grid, condition_threshold
from .spectral import circulant_spectrum
from .symmetry import GroupElement, exclusion_verdicts
from .verifier import verify_cc


def _floats(a) -> str:
    """A 1-D float array as JSON, in one ``%`` pass over one joined template."""
    return "[" + ",".join(["%.17g"] * a.size) % tuple(a.tolist()) + "]"


_BOOL = {True: "true", False: "false"}  # a flag as JSON


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


_TOO_DEEP = "input nests its arrays or objects too deeply"


def _load_problem(path: str, need_angles: bool = False):
    # the decoder and _check_numbers recurse once per level of nesting
    try:
        if path == "-":
            data = json.load(sys.stdin)
        else:
            with open(path, "r", encoding="utf-8") as fh:
                data = json.load(fh)
    except RecursionError:
        raise DomainError(_TOO_DEEP) from None
    if not isinstance(data, dict):
        raise DomainError("input must be a JSON object")
    alpha = data.get("alpha")
    if alpha is None:
        raise DomainError('input needs an "alpha" value')
    if "masses" not in data:
        raise DomainError('input needs a "masses" array')
    angles = data.get("angles")
    try:
        _check_numbers([alpha, data["masses"], [] if angles is None else angles])
        alpha = float(alpha)
        masses = np.asarray(data["masses"], dtype=float)
        if angles is not None:
            angles = np.asarray(angles, dtype=float)
    except RecursionError:
        raise DomainError(_TOO_DEEP) from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"alpha, masses and angles must be numbers: {exc}") from None
    masses = MassVector(masses)
    if angles is not None:
        angles = AngleConfiguration(angles)
    if need_angles and angles is None:
        raise DomainError('this command needs an "angles" array in the input')
    return alpha, masses, angles


def _emit(path: str | None, text: str) -> None:
    """Write text to the file at path, or to stdout without one."""
    if path:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# each witness kind's JSON as a % template
_GROUP_WITNESS = '{"kind":"group","h":%d,"l":%d}'
_SWAP_WITNESS = '{"kind":"swap","pair":[%d,%d]}'


def _witness_json(witness) -> str:
    if witness is None:
        return "null"
    if isinstance(witness, GroupElement):
        return _GROUP_WITNESS % (witness.h, witness.l)
    return _SWAP_WITNESS % witness


def _certificates_json(certificates) -> str:
    """The certificate list, in one ``%`` pass over one joined template."""
    if not certificates:
        return ""
    if isinstance(certificates[0][0], GroupElement):
        witness = _GROUP_WITNESS
        values = [v for g, margin in certificates for v in (g.h, g.l, margin)]
    else:
        witness = _SWAP_WITNESS
        values = [v for (j, k), margin in certificates for v in (j, k, margin)]
    template = '{"witness":' + witness + ',"margin":%.17g}'
    return ",".join([template] * len(certificates)) % tuple(values)


def _verdict_json(v, inconsistent: bool | None = None) -> str:
    """One verdict object, with an ``inconsistent`` field unless it is None."""
    flag = "" if inconsistent is None else ',"inconsistent":' + _BOOL[inconsistent]
    return ('{"excluded":%s,"witness":%s,"margin":%.17g,"certificates":[%s]%s}'
            % (_BOOL[v.excluded], _witness_json(v.witness), v.margin,
               _certificates_json(v.certificates), flag))


def _cmd_minimize(args: argparse.Namespace) -> str:
    alpha, masses, init = _load_problem(args.input)
    aux = AuxiliaryFunctional(alpha, args.k)
    result = minimize_f_k(aux, masses, init, grad_tol=args.tol)
    return ('{"alpha":%.17g,"k":%.17g,"masses":%s,"angles":%s,"f_value":%.17g,'
            '"grad_norm":%.17g,"iterations":%d,"converged":%s}\n'
            % (aux.alpha, aux.k, _floats(masses.masses), _floats(result.theta_m.angles),
               result.f_value, result.grad_norm, result.iterations, _BOOL[result.converged]))


def _cmd_verify(args: argparse.Namespace) -> str:
    alpha, masses, config = _load_problem(args.input, need_angles=True)
    report = verify_cc(alpha, masses, config, tol=args.tol)
    return ('{"alpha":%.17g,"masses":%s,"angles":%s,"tangential_residual":%.17g,'
            '"radial_spread":%.17g,"center_norm":%.17g,"lambda_tilde":%.17g,'
            '"tolerance":%.17g,"is_cc":%s}\n'
            % (alpha, _floats(masses.masses), _floats(config.angles),
               report.tangential_residual, report.radial_spread, report.center_norm,
               report.lambda_tilde, report.tolerance, _BOOL[report.is_cc]))


def _cmd_exclude(args: argparse.Namespace) -> str:
    alpha, masses, _ = _load_problem(args.input)
    aux = AuxiliaryFunctional(alpha, args.k)
    group, swap = exclusion_verdicts(aux, masses)
    return ('{"alpha":%.17g,"k":%.17g,"masses":%s,"theta_m":%s,"f_value":%.17g,'
            '"excluded":%s,"group":%s,"swap":%s}\n'
            % (aux.alpha, aux.k, _floats(masses.masses), _floats(group.theta_m.angles),
               group.f_value, _BOOL[group.excluded or swap.excluded], _verdict_json(group),
               _verdict_json(swap, swap.inconsistent)))


def _cmd_spectrum(args: argparse.Namespace) -> str:
    aux = AuxiliaryFunctional(args.alpha, args.k)
    return _floats(circulant_spectrum(aux, args.n)) + "\n"


def _scan_cells(grid, head: str, pre: str, post: str) -> list[str]:
    """Each grid cell as head + n + pre(alpha) + g + post(threshold, holds).

    pre and post repeat down each alpha's column, so they are formatted
    once per alpha.
    """
    ns, alphas, thresholds, rows = grid
    columns = [(pre.format("%.17g" % a), post.format("%.17g" % t, "true"),
                post.format("%.17g" % t, "false"), t) for a, t in zip(alphas, thresholds)]
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
    if args.format == "json":
        cells = _scan_cells(grid, '{"n":', ',"alpha":{},"g_value":',
                            ',"threshold":{},"holds":{}}}')
        return "[" + ",".join(cells) + "]\n"
    return _scan_csv(grid)


def _cmd_alpha_star(args: argparse.Namespace) -> str:
    root, g = _alpha_star(args.n, args.tol)
    tol = _tolerance(args.tol, "tol")  # the value _alpha_star checked: -0.0 prints as 0
    threshold = condition_threshold(root)
    return ('{"n":%d,"alpha_star":%.17g,"g_value":%.17g,"threshold":%.17g,'
            '"residual":%.17g,"tolerance":%.17g}\n'
            % (args.n, root, g, threshold, abs(g - threshold), tol))


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built on its first call rather than at import."""
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
    p.add_argument("--k", type=float, help="convexity constant (default tight)")
    p.add_argument("--tol", type=float, default=1e-11,
                   help="stop once the gradient norm is at most tol*|f| "
                        "(default %(default)s)")

    p = add("verify", _cmd_verify, "check the central-configuration equations")
    p.add_argument("--input", required=True)
    p.add_argument("--tol", type=float, default=1e-9,
                   help="residual tolerance (default %(default)s)")

    p = add("exclude", _cmd_exclude, "symmetry-based exclusion scan")
    p.add_argument("--input", required=True)
    p.add_argument("--k", type=float)

    p = add("spectrum", _cmd_spectrum, "circulant spectrum at the regular n-gon")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--k", type=float)

    p = add("scan", _cmd_scan, "scan the uniqueness condition over (n, alpha)")
    p.add_argument("--n-min", type=int, required=True)
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--alpha", type=float, nargs="+", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")

    p = add("alpha-star", _cmd_alpha_star, "critical exponent for one n")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--tol", type=float, default=1e-12,
                   help="bisection residual (default %(default)s); 0 usually "
                        "exits 3 once 52 halvings leave adjacent doubles")
    return parser


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
        _emit(args.output, text)
    except (CocircularError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        return _failed(exc)
    return 0

