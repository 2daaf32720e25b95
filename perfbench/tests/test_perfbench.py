"""Tests of the benchmark itself: its metric names, its span arithmetic,
its output checks, and a seconds-long run of every workload.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run as bench
import spans
import workloads
from rolekit import cli
from spans import Span, Tracer, layer_totals, self_times

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def test_metric_names_match_benchmark_json():
    for key, ours in (("end_to_end", bench.END_TO_END),
                      ("per_layer", bench.PER_LAYER)):
        listed = [(m["name"], m["unit"]) for m in SPEC[key]]
        assert listed == ours
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOAD_NAMES)
    assert set(workloads.WORKLOADS) == set(bench.WORKLOAD_NAMES)
    assert SPEC["command"] == ["python3", "perfbench/run.py"]


def test_per_layer_sums_cover_every_layer_metric():
    derived = {"graph.edges", "cli.self_s", "kestimate.k_tried",
               "clustering.pass_ratio", "trace.op_wall_s",
               "trace.overhead_ratio"}
    names = {name for name, _ in bench.PER_LAYER}
    assert names == set(spans.LAYER_SUMS) | derived


def _tree():
    # op root 0..10 with children a (1..4) and b (5..9); b has child c
    # (6..7); a top-level scoring span after the op joins op 0
    return [Span("cli.extract", 0, -1, 0.0, 10.0),
            Span("similarity.browet_factor", 0, 0, 1.0, 4.0,
                 {"refine_iters": 3}),
            Span("clustering.validated", 0, 0, 5.0, 9.0, {"passed": 1}),
            Span("clustering.validate", 0, 2, 6.0, 7.0),
            Span("metrics.nmi", 0, -1, 11.0, 11.5)]


def test_self_time_arithmetic_on_a_synthetic_tree():
    assert self_times(_tree()) == [3.0, 3.0, 3.0, 1.0, 0.5]
    totals = layer_totals(_tree(), [0])
    assert totals["ops"] == 1
    assert totals["op_wall_s"] == 10.0
    # the op's self times add up to its wall; the scoring span is outside
    assert sum(self_times(_tree())[:4]) == 10.0
    assert totals["cli.self_s"] == 3.0
    assert totals["similarity.refine_s"] == 3.0
    assert totals["similarity.refine_iters"] == 3
    assert totals["clustering.validated_s"] == 4.0
    assert totals["clustering.restarts"] == 1
    assert totals["validated_passes"] == 1
    assert totals["metrics.nmi_s"] == 0.5


def test_self_time_counts_overlapping_children_once():
    tree = [Span("root", 0, -1, 0.0, 10.0), Span("a", 0, 0, 1.0, 4.0),
            Span("b", 0, 0, 3.0, 6.0), Span("c", 0, 0, 8.0, 12.0)]
    assert self_times(tree)[0] == pytest.approx(10.0 - 5.0 - 2.0)


def test_tracer_restores_patched_functions():
    before = [getattr(owner, attr) for owner, attr, _, _ in spans.LAYER_HOOKS]
    sweep_cell = cli._sweep_cell
    with Tracer(layers=True, sweep=True):
        assert cli.load_edge_list is not before[0]
    after = [getattr(owner, attr) for owner, attr, _, _ in spans.LAYER_HOOKS]
    assert all(a is b for a, b in zip(before, after))
    assert cli._sweep_cell is sweep_cell


def test_check_partition_rejects_bad_files():
    workloads.check_partition("node,cluster\n0,0\n1,1\n", 2, 2)
    for text, n, k in [("node,label\n0,0\n", 1, 1),
                       ("node,cluster\n0,0\n2,1\n", 2, 2),
                       ("node,cluster\n0,0\n1,2\n", 2, 2),
                       ("node,cluster\n0,0\n", 2, 2)]:
        with pytest.raises(ValueError):
            workloads.check_partition(text, n, k)


def test_check_sweep_rows_flags_disagreement():
    ok = {"partition": 1, "nmi": 0.5}
    failed = {"partition": 0, "nmi": 0.0}
    by_cell = {(0.0, 0.0): [failed, ok], (0.0, 1.0): [ok, ok]}
    rows = [(0.0, 0.0, math.nan, math.nan, 0.1), (0.0, 1.0, 0.5, 0.0, 0.1)]
    assert workloads.check_sweep_rows(rows, by_cell, 2) == []
    rows[1] = (0.0, 1.0, 0.6, 0.0, 0.1)
    assert len(workloads.check_sweep_rows(rows, by_cell, 2)) == 1
    assert len(workloads.check_sweep_rows(rows[:1], by_cell, 2)) == 1


def test_rolekit_crash_is_a_failed_op_not_a_failed_check(tmp_path,
                                                         monkeypatch):
    def crash(argv):
        raise AssertionError("internal check")
    monkeypatch.setattr(cli, "main", crash)
    graph = tmp_path / "graph0.edges.txt"
    graph.write_text("0 1\n")
    record = workloads._extract_op(Tracer(layers=False), graph, 0,
                                   ("-r", "1", "--k", "1"), 1, tmp_path,
                                   False)
    assert "internal check" in record["crash"]
    assert record["error"] is None and record["partition"] == 0


def _run(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args],
                          cwd=cwd, capture_output=True, text=True,
                          timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_smoke_run_of_every_workload(workload, trace):
    proc = _run(ROOT, "--workload", workload, "--seed", "3", "--seconds",
                "1", "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert 0 <= result["failed"] <= result["attempted"]
    key = "per_layer" if trace else "end_to_end"
    assert list(result["metrics"]) == [m["name"] for m in SPEC[key]]
    if not trace:
        assert result["metrics"]["wall_s"]["value"] > 0
        assert result["metrics"]["setup_s"]["value"] > 0


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "--workload", "sweep_grid", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""
