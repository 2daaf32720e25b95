#!/usr/bin/env python3
"""Average-NMI heatmap data over the (p_in, p_out) grid.

Runs the full probability sweep for a planted role structure and both
similarity measures, writing one plot-ready CSV per measure. With the
default 0.05 step and 20 realizations per cell this takes a while; pass
--step 0.25 --realizations 5 for a quick look.
"""

import argparse
from pathlib import Path

import numpy as np

from rolekit.cli import SweepSpec, _write_csv, run_sweep

STRUCTURES = {
    "cycle3": [[0, 1, 0], [0, 0, 1], [1, 0, 0]],
    "blocks5": [[0, 1, 0, 0, 0],
                [0, 0, 1, 0, 0],
                [1, 0, 0, 0, 0],
                [0, 0, 0, 1, 0],
                [0, 0, 0, 0, 1]],
}


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--structure", choices=sorted(STRUCTURES), default="cycle3")
    ap.add_argument("--block-size", type=int, default=100)
    ap.add_argument("--step", type=float, default=0.05)
    ap.add_argument("--realizations", type=int, default=20)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workers", type=int, default=1)
    ap.add_argument("--out-dir", default="results")
    args = ap.parse_args()

    b = np.asarray(STRUCTURES[args.structure])
    k = b.shape[0]
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)

    for measure in ("browet", "salton"):
        spec = SweepSpec(B=b, sizes=np.full(k, args.block_size), seed=args.seed,
                         grid_step=args.step, realizations=args.realizations,
                         measure=measure, clusterer="kmeans_validated",
                         r=k, k_mode="fixed", k=k)
        rows = run_sweep(spec, workers=args.workers)
        out = out_dir / f"nmi_{args.structure}_{measure}.csv"
        _write_csv(out, ["p_in", "p_out", "mean_nmi", "std_nmi",
                         "mean_seconds"], rows)
        print(f"{measure}: wrote {out}")


if __name__ == "__main__":
    main()
