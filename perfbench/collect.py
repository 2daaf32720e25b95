#!/usr/bin/env python3
"""Run the benchmark once per seed on each workload and summarize the
spread of every end-to-end metric (``--trace 0``).

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/BENCH_baseline.json

For each workload and metric it reports the ten values, their median,
first and third quartile (``statistics.quantiles(values, n=4)``) and the
spread (q3 - q1) / median next to the metric's bound in BENCHMARK.json.
Run from the root of a rolekit checkout.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int) -> tuple:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}:\n{proc.stdout}{proc.stderr}")
    env = json.loads(lines[0].split(" ", 1)[1])
    return env, json.loads(lines[-1])


def summarize(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"values": values, "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else None, "bound": bound}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seeds_arg, default=seeds_arg("1-10"))
    ap.add_argument("--out", help="JSON summary path")
    args = ap.parse_args()
    metrics = spec["end_to_end"]
    bounds = {m["name"]: m["bound"] for m in metrics}
    summary = {"run_seconds": spec["run_seconds"], "seeds": args.seeds,
               "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        values: dict[str, list[float]] = {m["name"]: [] for m in metrics}
        for seed in args.seeds:
            env, result = run_once(workload, seed, spec["run_seconds"])
            if not result["correct"]:
                raise RuntimeError(f"{workload} seed {seed}: check failed")
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={result['metrics'][name]['value']:.6g}"
                for name in values), flush=True)
        summary["environment"] = {k: env[k] for k in env
                                  if k not in ("workload", "seed")}
        summary["workloads"][workload] = {
            name: summarize(v, bounds[name]) for name, v in values.items()}
        for name, s in summary["workloads"][workload].items():
            bound = s["bound"]
            flag = "" if s["spread"] is None or s["spread"] < bound / 3 \
                else "  <-- spread >= bound/3"
            print(f"  {name:<28} median={s['median']:.6g} "
                  f"spread={s['spread'] if s['spread'] is None else round(s['spread'], 4)}"
                  f" bound={bound}{flag}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
