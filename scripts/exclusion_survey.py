"""Survey symmetry exclusion over structured unequal-mass families.

For each family member the script minimizes the auxiliary functional,
runs both exclusion scans, and reports the best witness with its margin
alongside the residuals of the central-configuration check.

    python scripts/exclusion_survey.py --n-max 8 --alpha 1.0
"""

import argparse
import sys

import numpy as np

from cocircular import (
    AuxiliaryFunctional,
    CocircularError,
    DomainError,
    InvalidArity,
    MassVector,
    cli,
    exclusion_verdicts,
    verify_cc,
)


def families(n_min, n_max, heavy):
    for n in range(n_min, n_max + 1):
        one = np.ones(n)
        one[-1] = heavy
        yield f"one-heavy n={n}", one
        if n >= 5 and n % 2 == 1:
            two = np.ones(n)
            two[2] = heavy
            two[-1] = heavy
            yield f"two-heavy n={n}", two
        graded = 1.0 + np.arange(n) / n
        yield f"graded n={n}", graded


def describe(witness):
    if witness is None:
        return "-"
    if isinstance(witness, tuple):
        return f"swap{witness}"
    kind = "refl" if witness.is_reflection else "cyc"
    return f"{kind}(h={witness.h})"


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n-min", type=int, default=4)
    ap.add_argument("--n-max", type=int, default=8)
    ap.add_argument("--alpha", type=float, default=1.0)
    ap.add_argument("--heavy", type=float, default=2.0,
                    help="mass of the heavy bodies (others are 1)")
    args = ap.parse_args(argv)

    try:
        if args.n_min < 2:
            raise InvalidArity("--n-min must be at least 2")
        if args.n_min > args.n_max:
            raise DomainError("--n-min must not exceed --n-max")
        aux = AuxiliaryFunctional(args.alpha)
        members = [(label, MassVector(raw))
                   for label, raw in families(args.n_min, args.n_max, args.heavy)]
        header = (f"{'family':<16} {'excluded':>8} {'witness':>12} "
                  f"{'margin':>12} {'radial spread':>14} {'is_cc':>6}")
        print(header)
        print("-" * len(header))
        for label, m in members:
            group, swap = exclusion_verdicts(aux, m)
            rep = verify_cc(args.alpha, m, group.theta_m)
            best = group if group.margin >= swap.margin else swap
            print(f"{label:<16} {str(best.excluded).lower():>8} "
                  f"{describe(best.witness):>12} {best.margin:>12.6f} "
                  f"{rep.radial_spread:>14.3e} {str(rep.is_cc).lower():>6}")
            if swap.inconsistent:
                print(f"  warning: {label} has a swap certificate at a point "
                      "that passes the residual check")
    except CocircularError as exc:
        return cli._failed(exc)  # the exit codes of the CLI
    return 0


if __name__ == "__main__":
    sys.exit(main())
