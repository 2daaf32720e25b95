#!/usr/bin/env python3
"""Wall-time comparison of the two similarity measures across graph sizes.

Benchmarks the factor+cluster pipeline on constant-degree planted graphs
(edge count linear in n) and reports the fitted log-log slope per measure.
"""

import argparse

import numpy as np

from rolekit.cli import _write_csv, run_bench


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--sizes", default="500,1000,2000,4000,8000")
    ap.add_argument("--repetitions", type=int, default=5)
    ap.add_argument("-r", "--rank", type=int, default=3)
    ap.add_argument("--k", type=int, default=3)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", default=None, help="optional CSV path")
    args = ap.parse_args()

    sizes = [int(s) for s in args.sizes.split(",")]
    rows = run_bench(sizes, ["browet", "salton"], args.repetitions,
                     args.rank, args.k, args.seed)

    print(f"{'n':>8} {'measure':>8} {'seconds':>12}")
    for n, measure, seconds in rows:
        print(f"{n:>8} {measure:>8} {seconds:>12.6f}")
    for measure in ("browet", "salton"):
        times = [s for n, m, s in rows if m == measure]
        slope = np.polyfit(np.log(sizes), np.log(times), 1)[0]
        print(f"{measure}: log-log slope {slope:.2f}")

    if args.out:
        _write_csv(args.out, ["n", "measure", "seconds"], rows)
        print(f"wrote {args.out}")


if __name__ == "__main__":
    main()
