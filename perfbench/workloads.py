"""The three workloads: the inputs set-up writes, one pass of ops, and the
checks each op's outputs must pass.

An op is one ``rolekit extract`` invocation (``rolekit.cli.main``) or one
sweep realization inside ``rolekit.cli.run_sweep``. A pass is a fixed set of
ops on the same inputs: each extract op on each graph instance, or one full
sweep. Why each workload exists and which layer it isolates is written down
in README.md.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from rolekit import cli
from rolekit.graph import load_partition
from rolekit.metrics import nmi

from spans import Tracer, layer_totals

PLANTED_K = 3
CYCLE3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]


@dataclass(frozen=True)
class Workload:
    n: int = 0                    # extract workloads: cycle-3 bench_spec size
    instances: int = 1            # extract workloads: graphs per run
    extract_args: tuple = ()      # one extract op per entry
    sweep: dict | None = None     # sweep workload: the sweep spec fields


WORKLOADS = {
    "extract_large": Workload(
        n=16000, instances=3, extract_args=(("-r", "3", "--k", "3"),)),
    "kestimate_overrank": Workload(
        n=4000, extract_args=(("-r", "6", "--k-mode", "kmoving"),
                              ("-r", "6", "--k-mode", "hierarchical"))),
    "sweep_grid": Workload(
        sweep={"B": CYCLE3, "sizes": [100, 100, 100], "grid_step": 0.25,
               "realizations": 4, "measure": "browet",
               "clusterer": "kmeans_validated", "r": 3, "k_mode": "fixed",
               "k": PLANTED_K}),
}

# Seconds-long versions of the same workloads, for the benchmark's tests.
SMOKE = {
    "extract_large": replace(WORKLOADS["extract_large"], n=1200),
    "kestimate_overrank": replace(WORKLOADS["kestimate_overrank"], n=900),
    "sweep_grid": replace(WORKLOADS["sweep_grid"], sweep=dict(
        WORKLOADS["sweep_grid"].sweep, grid_step=0.5, realizations=1)),
}


# ---------------------------------------------------------------------------
# set-up
# ---------------------------------------------------------------------------

def graph_seed(seed: int, instance: int) -> int:
    """Seed of the instance-th graph of a run (numpy SeedSequence hash)."""
    return int(np.random.SeedSequence([seed, instance]).generate_state(1)[0])


def setup(wl: Workload, seed: int, index: int, inputs: Path) -> dict:
    """Write the workload's input files; returns their name and digest.

    Set-up ``index`` writes graph instance ``index % wl.instances``, so
    ``extract_large`` writes its three graphs while the set-ups of
    ``kestimate_overrank`` all write the same one; the sweep generates its
    graphs itself and set-up writes only its spec."""
    inputs.mkdir(parents=True, exist_ok=True)
    instance = index % wl.instances
    if wl.sweep is not None:
        text = json.dumps(dict(wl.sweep, seed=seed))
        cli.SweepSpec.from_json(text)
        written = [inputs / "sweep.json"]
        written[0].write_text(text)
    else:
        spec = cli.bench_spec(wl.n, PLANTED_K, graph_seed(seed, instance))
        spec_path = inputs / f"spec{instance}.json"
        spec_path.write_text(json.dumps(
            {"B": spec.B.tolist(), "sizes": spec.sizes.tolist(),
             "p_in": spec.p_in, "p_out": spec.p_out, "seed": spec.seed}))
        prefix = inputs / f"graph{instance}"
        rc = cli.main(["generate", str(spec_path), "--out-prefix", str(prefix)])
        if rc != cli.EXIT_OK:
            raise RuntimeError(f"rolekit generate exited {rc}")
        written = [prefix.with_suffix(".edges.txt"),
                   prefix.with_suffix(".truth.csv")]
    digest = hashlib.sha256()
    for path in written:
        digest.update(path.read_bytes())
    return {"inputs": written[0].name.split(".")[0],
            "digest": digest.hexdigest()[:16]}


# ---------------------------------------------------------------------------
# one pass
# ---------------------------------------------------------------------------

def run_pass(wl: Workload, seed: int, inputs: Path, out: Path,
             traced: bool) -> dict:
    """Run one pass; returns its wall time, one record per op and, when
    traced, the per-layer totals and the spans."""
    if wl.sweep is not None:
        return _sweep_pass(inputs, traced)
    tracer = Tracer(layers=traced)
    records = []
    graphs = sorted(inputs.glob("graph*.edges.txt"))
    with tracer:
        for graph in graphs:
            for index, args in enumerate(wl.extract_args):
                records.append(_extract_op(tracer, graph, index, args, seed,
                                           out, traced))
    return _finish(sum(r["wall"] for r in records), records, tracer, traced)


def _finish(wall: float, records: list, tracer: Tracer, traced: bool,
            problems: list | None = None) -> dict:
    result = {"traced": traced, "wall": wall, "ops": records,
              "problems": problems or []}
    if traced:
        result["layers"] = layer_totals(tracer.spans, tracer.op_roots)
        result["spans"] = [vars(span) for span in tracer.spans]
    return result


def _extract_op(tracer: Tracer, graph: Path, index: int, args: tuple,
                seed: int, out: Path, traced: bool) -> dict:
    """One ``rolekit extract`` call and the checks on what it wrote.

    ``crash`` marks an op rolekit failed (an exception, or exit 1 other
    than "no acceptable classification"); ``error`` marks output that
    failed a check. Neither op wrote a usable partition."""
    name = graph.name.split(".")[0]
    key = f"{name}/op{index}"
    prefix = out / f"{name}-op{index}"
    for stale in out.glob(prefix.name + ".*"):
        stale.unlink()
    argv = ["extract", str(graph),
            "--out-prefix", str(prefix), *args, "--seed", str(seed)]
    record = {"key": key, "unknown_k": "--k-mode" in args, "partition": 0,
              "passed": 0, "k": 0, "nmi": 0.0, "digest": None,
              "crash": None, "error": None}
    root = tracer.open("cli.extract", op_root=True)
    try:
        rc = cli.main(argv)
    except (Exception, SystemExit) as exc:
        rc = None
        record["crash"] = f"raised {exc!r}"
    finally:
        tracer.close(root)
    record["wall"] = root.duration
    if rc is not None:
        try:
            _check_extract(record, rc, prefix,
                           graph.with_name(name + ".truth.csv"), tracer,
                           traced)
        except (OSError, ValueError, KeyError) as exc:
            record["error"] = f"output check failed: {exc}"
    return record


def _check_extract(record: dict, rc: int, prefix: Path, truth_path: Path,
                   tracer: Tracer, traced: bool) -> None:
    partition = prefix.with_suffix(".partition.csv")
    if rc == cli.EXIT_ERROR:
        estimate = prefix.with_suffix(".kestimate.json")
        if record["unknown_k"] and estimate.exists() \
                and json.loads(estimate.read_text())["k"] == 0:
            # documented outcome: no k validated (k=0), no partition
            if partition.exists():
                raise ValueError("k=0 but a partition was written")
        else:
            record["crash"] = "exit 1 (error)"
        return
    if rc not in (cli.EXIT_OK, cli.EXIT_VALIDATION_FAILED):
        raise ValueError(f"unexpected exit code {rc}")
    report = json.loads(prefix.with_suffix(".validation.json").read_text())
    if report["passed"] != (rc == cli.EXIT_OK):
        raise ValueError(f"exit {rc} but validation passed={report['passed']}")
    with open(truth_path) as fh:
        truth = load_partition(fh)
    text = partition.read_text()
    check_partition(text, len(truth), report["k"])
    span = tracer.open("metrics.nmi") if traced else None
    with open(partition) as fh:
        score = nmi(truth, load_partition(fh))
    if span is not None:
        tracer.close(span)
    record.update(partition=1, passed=int(report["passed"]), k=report["k"],
                  nmi=score,
                  digest=hashlib.sha256(text.encode()).hexdigest()[:16])


def check_partition(text: str, n: int, k: int) -> None:
    """A partition CSV must list nodes 0..n-1 in order, labels in 0..k-1."""
    lines = text.splitlines()
    if not lines or lines[0] != "node,cluster":
        raise ValueError("partition header is not 'node,cluster'")
    rows = np.array([line.split(",") for line in lines[1:]], dtype=np.int64)
    if rows.shape != (n, 2) or not np.array_equal(rows[:, 0], np.arange(n)):
        raise ValueError(f"partition does not cover nodes 0..{n - 1}")
    if rows[:, 1].min() < 0 or rows[:, 1].max() >= k:
        raise ValueError(f"partition labels outside 0..{k - 1}")


def _sweep_pass(inputs: Path, traced: bool) -> dict:
    spec = cli.SweepSpec.from_json((inputs / "sweep.json").read_text())
    tracer = Tracer(layers=traced, sweep=True)
    with tracer:
        start = time.perf_counter()
        rows = cli.run_sweep(spec, workers=1)
        wall = time.perf_counter() - start
    records, by_cell = [], {}
    for index in tracer.op_roots:
        root = tracer.spans[index]
        p_in, p_out = root.data["cell"]
        seen = by_cell.setdefault((p_in, p_out), [])
        record = {"key": f"{p_in},{p_out}/{len(seen)}",
                  "cell": f"{p_in},{p_out}", "unknown_k": False,
                  "wall": root.duration, "crash": None, "error": None,
                  "partition": root.data["partition"],
                  "passed": root.data["passed"] * root.data["partition"],
                  "k": root.data.get("k", 0), "nmi": root.data.get("nmi", 0.0),
                  "digest": root.data.get("digest")}
        seen.append(record)
        records.append(record)
    return _finish(wall, records, tracer, traced,
                   check_sweep_rows(rows, by_cell, spec.realizations))


def check_sweep_rows(rows: list, by_cell: dict, realizations: int) -> list:
    """Compare the sweep's own rows with the realizations seen from
    outside: every cell ran every realization, and a cell's mean NMI is NaN
    exactly when one of its realizations failed, else the mean of the
    captured scores."""
    problems = []
    if len(rows) != len(by_cell):
        problems.append(f"{len(rows)} sweep rows for {len(by_cell)} cells")
    for p_in, p_out, mean_nmi, _, _ in rows:
        seen = by_cell.get((p_in, p_out), [])
        if len(seen) != realizations:
            problems.append(f"cell ({p_in}, {p_out}): {len(seen)} "
                            f"realizations, expected {realizations}")
            continue
        failed = not all(r["partition"] for r in seen)
        expected = float(np.mean([r["nmi"] for r in seen]))
        if failed != math.isnan(mean_nmi) or (
                not failed and not math.isclose(mean_nmi, expected,
                                                rel_tol=1e-12)):
            problems.append(f"cell ({p_in}, {p_out}): mean_nmi {mean_nmi} "
                            f"disagrees with the realizations seen")
    return problems
