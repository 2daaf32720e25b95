#!/usr/bin/env python3
"""Pipeline benchmark for rolekit.

    python3 perfbench/run.py --workload extract_large --seed 1 \\
        --seconds 24 --trace 0

Run from the root of a rolekit checkout; rolekit is imported from its
``src/`` directory. The run sets up the workload's inputs in fresh
processes (five times, reporting the median), then runs passes of ops in
one more process for ``--seconds`` seconds: a closed loop, one op at a
time, BLAS pinned to one thread. A fixed reference computation is timed
before every set-up and every pass, and the gated times are scaled by it to
the speed at which it takes ``REFERENCE_S``. It checks every op's outputs,
prints a report with every metric's unit and sample count, and prints as its
last line one JSON object with the end-to-end metrics (``--trace 0``) or the
per-layer metrics (``--trace 1``). It exits 1 when a check fails, 2 when it
cannot run at all. README.md explains the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("extract_large", "kestimate_overrank", "sweep_grid")
SETUP_REPEATS = 5
MIN_PASSES = 3
CALIBRATION_REPEATS = 3
# the reference computation's usual time on a 2-vCPU Intel Xeon
REFERENCE_S = 0.125
RUN_LIMIT_S = 170.0
BLAS_THREADS = 1
BLAS_ENV = {"OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
             "OMP_NUM_THREADS": str(BLAS_THREADS),
             "MKL_NUM_THREADS": str(BLAS_THREADS)}

# (name, unit); the order matches BENCHMARK.json
END_TO_END = [
    ("setup_s", "s"), ("wall_s", "s"),
    ("peak_rss_mb", "MB"), ("setup_rss_mb", "MB"), ("nmi_mean", "ratio"),
    ("partition_ratio", "ratio"), ("k_correct_ratio", "ratio"),
]
PER_LAYER = [
    ("graph.load_s", "s"), ("graph.generate_s", "s"),
    ("graph.reduced_s", "s"), ("graph.edges", "count"),
    ("similarity.beta_s", "s"), ("similarity.beta_calls", "count"),
    ("similarity.arpack_calls", "count"), ("similarity.arpack_s", "s"),
    ("similarity.initial_svd_s", "s"), ("similarity.refine_s", "s"),
    ("similarity.refine_iters", "count"),
    ("clustering.validated_calls", "count"),
    ("clustering.validated_s", "s"), ("clustering.restarts", "count"),
    ("clustering.seed_s", "s"), ("clustering.kmeans_calls", "count"),
    ("clustering.kmeans_s", "s"), ("clustering.lloyd_iters", "count"),
    ("clustering.validate_s", "s"), ("clustering.pass_ratio", "ratio"),
    ("kestimate.kmoving_s", "s"), ("kestimate.hierarchical_s", "s"),
    ("kestimate.k_tried", "count"), ("kestimate.merges", "count"),
    ("metrics.nmi_s", "s"), ("cli.self_s", "s"),
    ("trace.op_wall_s", "s"), ("trace.overhead_ratio", "ratio"),
]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true",
                    help="seconds-long input sizes (the benchmark's tests)")
    ap.add_argument("--phase", choices=("setup", "measure"),
                    help=argparse.SUPPRESS)
    ap.add_argument("--work", help=argparse.SUPPRESS)
    ap.add_argument("--index", type=int, default=0, help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def _maxrss_mb() -> float:
    """Peak RSS of this process's own address space. ``ru_maxrss`` also
    counts the parent's RSS when it started this process, which Linux
    carries across exec, so it is only the fallback."""
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# child phases (run in their own process so each has its own peak RSS)
# ---------------------------------------------------------------------------

def _import_rolekit():
    sys.path.insert(0, str(SRC))
    import rolekit
    if Path(rolekit.__file__).resolve().parent != SRC / "rolekit":
        raise ImportError(f"rolekit imported from {rolekit.__file__}, "
                          f"not from {SRC}")


def child(args) -> int:
    _import_rolekit()
    import workloads
    wl = (workloads.SMOKE if args.smoke else workloads.WORKLOADS)[
        args.workload]
    work = Path(args.work)
    if args.phase == "setup":
        result = dict(workloads.setup(wl, args.seed, args.index,
                                      work / "inputs"),
                      rss_mb=_maxrss_mb())
    else:
        result = measure(workloads, wl, args, work)
    (work / f"{args.phase}-{args.index}.json").write_text(
        json.dumps(result))
    return 0


def measure(workloads, wl, args, work: Path) -> dict:
    """Closed loop: run whole passes until the next one would end after
    ``--seconds``, and at least three, so every op's wall time has a median
    of three and its labels are compared between passes. A traced run
    alternates untraced and traced passes, so the tracing overhead is
    measured in the same process."""
    out = work / "out"
    out.mkdir(exist_ok=True)
    reference = calibration_kernel()
    passes, calibration = [], []
    start = time.perf_counter()
    while True:
        walls = [p["wall"] for p in passes]
        if len(passes) >= MIN_PASSES and (
                time.perf_counter() - start + statistics.median(walls)
                > args.seconds):
            break
        calibration += [reference() for _ in range(CALIBRATION_REPEATS)]
        traced = bool(args.trace) and len(passes) % 2 == 1
        passes.append(workloads.run_pass(wl, args.seed, work / "inputs",
                                         out, traced))
    spans = [dict(span, pass_index=i) for i, p in enumerate(passes)
             for span in p.pop("spans", [])]
    if spans:
        WORK_ROOT.mkdir(exist_ok=True)
        (WORK_ROOT / f"trace-{args.workload}-s{args.seed}.json").write_text(
            json.dumps(spans))
    return {"passes": passes, "calibration": calibration,
            "rss_mb": _maxrss_mb(), "blas_threads": blas_threads()}


def calibration_kernel():
    """A fixed reference computation of about 0.1 s: dense SVDs, a chain
    of sparse mat-vecs and a Python loop, the kinds of work an op does. It
    calls no rolekit code, and its BLAS runs on the same single thread. The
    host's speed drifts by up to half over minutes; op times and this
    kernel's time drift together, so the gated times are divided by it."""
    import numpy as np
    import scipy.sparse
    rng = np.random.default_rng(0)
    dense = rng.standard_normal((300, 600))
    sparse = scipy.sparse.random(5000, 5000, density=0.004,
                                 random_state=rng, format="csr")
    vector = rng.standard_normal(5000)

    def run() -> float:
        start = time.perf_counter()
        for _ in range(3):
            np.linalg.svd(dense, full_matrices=False)
        x = vector
        for _ in range(120):
            x = sparse @ x
            x /= np.linalg.norm(x)
        total = 0
        for i in range(200_000):
            total += i * i
        return time.perf_counter() - start
    return run


def blas_threads() -> dict:
    """Thread count each loaded OpenBLAS reports (read from this process's
    own memory map)."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return {}
    found = {}
    libs = {line.split()[-1] for line in maps.splitlines()
            if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(path).name] = fn()
                break
    return found


# ---------------------------------------------------------------------------
# parent: orchestration, checks, metrics
# ---------------------------------------------------------------------------

class BenchError(RuntimeError):
    pass


def _spawn(args, phase: str, work: Path, deadline: float,
           index: int = 0) -> tuple[float, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--phase", phase,
           "--index", str(index),
           "--work", str(work), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)] + (["--smoke"] if args.smoke else [])
    start = time.perf_counter()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise BenchError(f"{phase} did not finish within the run limit")
    wall = time.perf_counter() - start
    if proc.returncode != 0:
        raise BenchError(f"{phase} exited {proc.returncode}:\n{proc.stderr}")
    result = work / f"{phase}-{index}.json"
    return wall, json.loads(result.read_text())


def environment(args) -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_requested": BLAS_THREADS,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "platform": platform.platform(),
            "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "smoke": args.smoke}


def _line(name: str, value: float, unit: str, samples: str) -> str:
    return f"{name:<30} {value:>12.6g} {unit:<6} {samples}"


def pass_time(passes: list) -> float:
    """Time of one pass built from per-op medians: every op of a pass has
    one wall time per pass, and the medians of those are summed. Contention
    from outside the process only ever slows an op, so a median per op
    keeps a slowed pass from moving the figure."""
    walls: dict[str, list[float]] = {}
    for p in passes:
        for op in p["ops"]:
            walls.setdefault(op["key"], []).append(op["wall"])
    return sum(statistics.median(w) for w in walls.values())


def end_to_end_metrics(setups: list, setup_calibration: list, measured: dict,
                       planted_k: int) -> tuple[dict, list]:
    """The gated metrics, and report lines giving each one's sample count
    plus the figures reported but not gated."""
    passes = measured["passes"]
    ops = [op for p in passes for op in p["ops"]]
    n = len(ops)
    made = sum(op["partition"] for op in ops)
    right_k = sum(op["partition"] and op["k"] == planted_k for op in ops)
    wall = pass_time(passes)
    calibration = statistics.median(measured["calibration"])
    setup = statistics.median(wall for wall, _ in setups)
    setup_calibration = statistics.median(setup_calibration)
    metrics = {
        "setup_s": setup * REFERENCE_S / setup_calibration,
        "wall_s": wall * REFERENCE_S / calibration,
        "peak_rss_mb": measured["rss_mb"],
        "setup_rss_mb": statistics.median(r["rss_mb"] for _, r in setups),
        "nmi_mean": sum(op["nmi"] for op in ops) / n,
        "partition_ratio": made / n,
        "k_correct_ratio": right_k / n,
    }
    samples = {"setup_s": "setup_measured_s at reference speed",
               "wall_s": "wall_measured_s at reference speed",
               "peak_rss_mb": "measured process",
               "setup_rss_mb": f"median of {len(setups)} set-ups",
               "nmi_mean": f"{n} ops, a failed op scores 0",
               "partition_ratio": f"{made}/{n} ops wrote a partition",
               "k_correct_ratio": f"{right_k}/{n} ops have k={planted_k}"}
    lines = [_line(name, metrics[name], unit, samples[name])
             for name, unit in END_TO_END]
    lines.append("reported, not gated:")
    lines.append(_line("setup_measured_s", setup, "s",
                       f"median of {len(setups)} set-ups"))
    lines.append(_line("setup_calibration_s", setup_calibration, "s",
                       f"reference computation, median of "
                       f"{len(setups) * CALIBRATION_REPEATS} runs"))
    lines.append(_line("wall_measured_s", wall, "s",
                       f"{len(passes[0]['ops'])} per-op medians over "
                       f"{len(passes)} passes; pass walls " + " ".join(
                           f"{p['wall']:.3f}{'T' if p['traced'] else ''}"
                           for p in passes)))
    lines.append(_line("calibration_s", calibration, "s",
                       f"reference computation, median of "
                       f"{len(measured['calibration'])} runs"))
    walls = sorted(op["wall"] for op in ops)
    if n >= 100:
        lines.append(_line("op_p50_s", statistics.median(walls), "s",
                           f"{n} ops"))
        lines.append(_line("op_p90_s", statistics.quantiles(walls, n=10)[-1],
                           "s", f"{n} ops"))
    validated = sum(op["passed"] for op in ops)
    lines.append(_line("fail_ratio", (n - made) / n, "ratio",
                       f"{n - made}/{n} ops produced no partition"))
    lines.append(_line("validated_ratio", validated / n, "ratio",
                       f"{validated}/{n} ops passed validation"))
    unknown = [op for op in ops if op["unknown_k"]]
    if unknown:
        found = sum(op["partition"] and op["k"] == planted_k
                    for op in unknown)
        lines.append(_line("k_estimated_ratio", found / len(unknown),
                           "ratio", f"{found}/{len(unknown)} unknown-k ops "
                           f"estimated k={planted_k}"))
    failed_cells: dict[str, int] = {}
    for op in ops:
        if "cell" in op and not op["partition"]:
            failed_cells[op["cell"]] = failed_cells.get(op["cell"], 0) + 1
    crashes = sorted({f"{op['key']}: {op['crash']}" for op in ops
                      if op["crash"]})
    lines += [f"op failed in rolekit: {crash}" for crash in crashes]
    if failed_cells:
        lines.append("failed realizations per (p_in,p_out) cell over "
                     f"{len(passes)} passes: " + ", ".join(
                         f"({cell}) {count}"
                         for cell, count in sorted(failed_cells.items())))
    return metrics, lines


def per_layer_metrics(passes: list) -> tuple[dict, list]:
    """Per-op averages over the traced passes, and report lines with each
    timed layer's share of the traced op wall time."""
    traced = [p for p in passes if p["traced"]]
    totals = {key: sum(p["layers"][key] for p in traced)
              for key in traced[0]["layers"]}
    n_ops = totals["ops"]
    metrics = {name: totals[name] / n_ops for name, _ in PER_LAYER
               if name in totals}
    restarts = totals["clustering.restarts"]
    metrics["clustering.pass_ratio"] = (
        totals["validated_passes"] / restarts if restarts else 0.0)
    metrics["trace.op_wall_s"] = totals["op_wall_s"] / n_ops
    traced_s = pass_time(traced)
    untraced_s = pass_time([p for p in passes if not p["traced"]])
    metrics["trace.overhead_ratio"] = traced_s / untraced_s - 1.0
    lines = [f"per-layer: per op over {n_ops} traced ops in {len(traced)} "
             "traced passes; share = part of the traced op wall time"]
    for name, unit in PER_LAYER:
        share = (f"share={totals[name] / totals['op_wall_s']:.1%}"
                 if unit == "s" and name in totals else "")
        lines.append(_line(name, metrics[name], unit, share))
    lines.append(f"self times of a traced op add up to its wall time (every "
                 f"span nests in its parent): {traced_s:.6f} s per pass "
                 f"against {untraced_s:.6f} s untraced, as wall_measured_s; "
                 "the difference is trace.overhead_ratio")
    lines.append(f"pass_ratio base: {totals['clustering.restarts']:.0f} "
                 "restarts")
    return metrics, lines


def check(setups: list, passes: list) -> list[str]:
    """Correctness problems: set-ups of the same inputs that wrote different
    files, ops whose outputs failed their checks, sweep rows that disagree
    with the realizations seen, and partitions that differ between passes
    over the same inputs."""
    inputs: dict[str, set] = {}
    for _, setup in setups:
        inputs.setdefault(setup["inputs"], set()).add(setup["digest"])
    problems = [f"set-ups wrote different {name} files"
                for name, digests in inputs.items() if len(digests) > 1]
    digests: dict[str, set] = {}
    for index, p in enumerate(passes):
        problems += [f"pass {index}: {msg}" for msg in p["problems"]]
        for op in p["ops"]:
            if op["error"]:
                problems.append(f"pass {index} op {op['key']}: {op['error']}")
            digests.setdefault(op["key"], set()).add(op["digest"])
    problems += [f"op {key}: partition differs between passes ({sorted(map(str, d))})"
                 for key, d in digests.items() if len(d) > 1]
    return problems


def run(args) -> int:
    deadline = time.monotonic() + RUN_LIMIT_S
    work = WORK_ROOT / f"{args.workload}-s{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        reference = calibration_kernel()
        setups, setup_calibration = [], []
        for index in range(1 if args.smoke else SETUP_REPEATS):
            setup_calibration += [reference()
                                  for _ in range(CALIBRATION_REPEATS)]
            setups.append(_spawn(args, "setup", work, deadline, index))
        _, measured = _spawn(args, "measure", work, deadline)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    passes = measured["passes"]
    env = dict(environment(args), blas_threads=measured["blas_threads"])
    _import_rolekit()
    from workloads import PLANTED_K
    end_to_end, lines = end_to_end_metrics(setups, setup_calibration,
                                           measured, PLANTED_K)
    if args.trace:
        per_layer, layer_lines = per_layer_metrics(passes)
        lines += layer_lines
    problems = check(setups, passes)
    ops = [op for p in passes for op in p["ops"]]
    labels = sorted({(op["key"], str(op["digest"])) for op in ops})
    print("perfbench " + json.dumps(env, sort_keys=True))
    print("inputs: " + " ".join(f"{r['inputs']}={r['digest']}"
                                for _, r in setups))
    print("partitions digest: " + hashlib.sha256(
        repr(labels).encode()).hexdigest()[:16] + f" over {len(labels)} ops")
    print("\n".join(lines))
    for problem in problems:
        print(f"CHECK FAILED: {problem}")
    chosen, values = ((PER_LAYER, per_layer) if args.trace
                      else (END_TO_END, end_to_end))
    print(json.dumps({"correct": not problems, "attempted": len(ops),
                      "failed": sum(1 for op in ops
                                    if op["crash"] or op["error"]),
                      "metrics": {name: {"value": values[name], "unit": unit}
                                  for name, unit in chosen}}))
    return 0 if not problems else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    os.environ.update(BLAS_ENV)  # before numpy loads OpenBLAS
    if not (SRC / "rolekit" / "__init__.py").is_file():
        print(f"perfbench: no rolekit sources under {SRC}; run from the root "
              "of a rolekit checkout", file=sys.stderr)
        return 2
    if args.phase:
        return child(args)
    try:
        return run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
