"""Map the (n, alpha) region where the uniqueness condition holds.

Prints the critical exponent and the edge of the region for each n, and
writes the `cocircular scan` CSV of the grid from the same evaluation.

    python scripts/region_map.py --n-min 3 --n-max 20 --alpha-steps 60 \
        --csv region.csv
"""

import argparse
import sys

import numpy as np

from cocircular import CocircularError, DomainError, NoBracket, cli
from cocircular.scanner import _alpha_star


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=20)
    ap.add_argument("--alpha-min", type=float, default=0.1)
    ap.add_argument("--alpha-max", type=float, default=3.0)
    ap.add_argument("--alpha-steps", type=int, default=30)
    ap.add_argument("--csv", help="write grid cells here")
    args = ap.parse_args(argv)

    try:
        if args.alpha_steps < 1:
            raise DomainError("--alpha-steps must be at least 1")
        try:  # a range past the doubles comes out NaN, which _grid refuses
            with np.errstate(over="ignore", invalid="ignore"):
                alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
        except MemoryError:
            raise DomainError(f"no memory holds the alpha grid at --alpha-steps = "
                              f"{args.alpha_steps}") from None
        grid = ns, alphas, thresholds, rows = cli._scan_grid(args.n_min, args.n_max, alphas)
        if args.csv:
            cli._emit(args.csv, cli._scan_csv(grid))
            print(f"wrote {len(ns) * len(alphas)} cells to {args.csv}")
    except (CocircularError, OSError) as exc:
        return cli._failed(exc)

    print(f"{'n':>3} {'alpha_star':>12} {'g(n,a*)':>10} {'holds up to':>12}")
    for n, row in zip(ns, rows):
        held = [a for a, t, g in zip(alphas, thresholds, row) if g <= t]
        edge = f"{held[-1]:.3f}" if held else "never"
        try:
            star, g = _alpha_star(n, 1e-12)  # alpha_star's default tol
            print(f"{n:>3} {star:>12.8f} {g:>10.6f} {edge:>12}")
        except NoBracket as exc:
            print(f"{n:>3} {'-':>12} {'-':>10} {edge:>12}  ({exc})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
