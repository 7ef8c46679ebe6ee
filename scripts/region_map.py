"""Map the (n, alpha) region where the uniqueness condition holds.

Writes one CSV row per grid cell and prints the critical exponent for
each n, so the boundary of the region is visible at a glance.

    python scripts/region_map.py --n-min 3 --n-max 20 --alpha-steps 60 \
        --csv region.csv
"""

import argparse
import sys

import numpy as np

from cocircular import NoBracket, alpha_star, cli, g_value, scan_region


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=3)
    ap.add_argument("--n-max", type=int, default=20)
    ap.add_argument("--alpha-min", type=float, default=0.1)
    ap.add_argument("--alpha-max", type=float, default=3.0)
    ap.add_argument("--alpha-steps", type=int, default=30)
    ap.add_argument("--csv", help="write grid cells here")
    args = ap.parse_args(argv)

    alphas = np.linspace(args.alpha_min, args.alpha_max, args.alpha_steps)
    cells = scan_region(range(args.n_min, args.n_max + 1), alphas)
    if args.csv:
        # the CSV is the `cocircular scan --csv` file, written by the CLI itself
        code = cli.main(["scan", "--n-min", str(args.n_min), "--n-max", str(args.n_max),
                         "--alpha", *[str(float(a)) for a in alphas], "--csv", args.csv])
        if code:
            return code
        print(f"wrote {len(cells)} cells to {args.csv}")

    # the largest alpha where the condition holds at each n, in one pass
    # over the cells (they come sorted by (n, alpha))
    edges = {c.n: c.alpha for c in cells if c.holds}
    print(f"{'n':>3} {'alpha_star':>12} {'g(n,a*)':>10} {'holds up to':>12}")
    for n in range(args.n_min, args.n_max + 1):
        edge = f"{edges[n]:.3f}" if n in edges else "never"
        try:
            star = alpha_star(n)
            print(f"{n:>3} {star:>12.8f} {g_value(n, star):>10.6f} {edge:>12}")
        except NoBracket as exc:
            print(f"{n:>3} {'-':>12} {'-':>10} {edge:>12}  ({exc})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
