"""Time and page-fault cost of repeat solves and CC checks at one n.

For each (n, alpha), with masses drawn U(0.5, 2) from seed n, the script
solves once and checks the result once, so this thread's pair workspace is
built for n, then times repeat ``minimize_f_k`` and ``verify_cc`` calls on
the same problem. It prints
the median milliseconds and the mean minor page faults per call, read from
``resource.getrusage(RUSAGE_SELF)`` and ``time.perf_counter`` around each
call, so only this process is measured.

    python scripts/pair_faults.py --n 64 256 512 --alpha 0.5 1 3 --repeats 10
"""

import argparse
import resource
import statistics
import sys
import time

import numpy as np

from cocircular import AuxiliaryFunctional, MassVector, minimize_f_k, verify_cc


def _cost(call, repeats):
    """Median ms and mean minor faults of ``repeats`` calls."""
    ms, faults = [], 0
    for _ in range(repeats):
        f0 = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        t0 = time.perf_counter()
        call()
        ms.append(1e3 * (time.perf_counter() - t0))
        faults += resource.getrusage(resource.RUSAGE_SELF).ru_minflt - f0
    return statistics.median(ms), faults / repeats


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--n", type=int, nargs="+", default=[64, 256, 512])
    ap.add_argument("--alpha", type=float, nargs="+", default=[0.5, 1.0, 3.0])
    ap.add_argument("--repeats", type=int, default=10)
    args = ap.parse_args(argv)
    if args.repeats < 1:
        ap.error("--repeats must be at least 1")

    header = (f"{'n':>5} {'alpha':>6} {'minimize ms':>12} {'faults':>8} "
              f"{'verify ms':>10} {'faults':>8}")
    print(header)
    print("-" * len(header))
    for n in args.n:
        masses = MassVector(np.random.default_rng(n).uniform(0.5, 2.0, n))
        for alpha in args.alpha:
            aux = AuxiliaryFunctional(alpha)
            theta = minimize_f_k(aux, masses).theta_m
            verify_cc(alpha, masses, theta)
            solve = _cost(lambda: minimize_f_k(aux, masses), args.repeats)
            check = _cost(lambda: verify_cc(alpha, masses, theta), args.repeats)
            print(f"{n:>5} {alpha:>6g} {solve[0]:>12.3f} {solve[1]:>8.1f} "
                  f"{check[0]:>10.3f} {check[1]:>8.1f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
