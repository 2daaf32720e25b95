"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with ``pytest tests/test_acceptance.py -v -s``).

Thresholds and tolerances are pinned here; loosening any of them is a
release decision, not a test fix.
"""

import json
import math
import time

import numpy as np

import rolekit as rk
from rolekit.cli import (main, pairwise_inner_product_histogram, run_bench,
                         bench_spec, time_pipeline, _derived_seed)
from rolekit.clustering import kmeans, kmeans_pp_init
from rolekit.similarity import beta_estimate
from reference import BLOCKS5, CYCLE3, dense_oracle, rng

HIST_LOWS = np.round(np.arange(-1.0, 0.995, 0.01), 10)


def _report(criterion, passed):
    print(f"\n[acceptance] {criterion}: {'PASS' if passed else 'FAIL'}")


def test_criterion_01_oracle_equivalence():
    # 20 seeded planted graphs, n <= 30, r = n, beta from the convergence
    # bound: max-abs difference of X X^T vs the dense fixed point <= 1e-6,
    # all inside 10 s
    ok = False
    try:
        start = time.monotonic()
        worst = 0.0
        for seed in range(20):
            if seed % 2:
                spec = rk.BenchmarkSpec(B=[[1, 1, 0], [0, 0, 1], [1, 0, 0]],
                                        sizes=[10, 10, 10], p_in=0.85,
                                        p_out=0.15, seed=seed)
            else:
                spec = rk.BenchmarkSpec(B=[[0, 1], [1, 0]], sizes=[14, 14],
                                        p_in=0.85, p_out=0.15, seed=seed)
            g, _ = rk.generate_planted(spec)
            beta = beta_estimate(g, g.n)
            factor = rk.browet_factor(g, rk.SimilarityConfig(
                r=g.n, beta=beta, tol=1e-10, max_iter=200))
            oracle = dense_oracle(g, beta, tol=1e-12)
            worst = max(worst, float(np.abs(factor.gram() - oracle).max()))
        elapsed = time.monotonic() - start
        assert worst <= 1e-6, f"max-abs factor/oracle difference {worst}"
        assert elapsed < 10.0, f"took {elapsed:.1f} s"
        ok = True
    finally:
        _report("criterion 1 (oracle equivalence)", ok)


def test_criterion_02_noiseless_recovery(tmp_path):
    # five-role noiseless structure, 100 nodes/block: NMI exactly 1 for
    # 20/20 clustering seeds, and the inner-product histogram is confined
    # to the bins containing 0 and 1
    ok = False
    try:
        spec = rk.BenchmarkSpec(B=BLOCKS5, sizes=[100] * 5, p_in=1.0,
                                p_out=0.0, seed=0)
        g, truth = rk.generate_planted(spec)
        factor = rk.browet_factor(g, rk.SimilarityConfig(r=5))
        for seed in range(20):
            model, val = rk.cluster_validated(factor.X, 5, rng(seed))
            assert val.passed, f"validation failed for seed {seed}"
            assert rk.nmi(truth, model.labels) == 1.0, f"seed {seed}"

        graph_path = tmp_path / "noiseless.txt"
        with open(graph_path, "w") as fh:
            rk.save_edge_list(g, fh)
        hist_path = tmp_path / "hist.csv"
        assert main(["hist", str(graph_path), "-r", "5",
                     "--out", str(hist_path)]) == 0
        populated = set()
        with open(hist_path) as fh:
            next(fh)
            for line in fh:
                low, count = line.strip().split(",")
                if int(count) > 0:
                    populated.add(low)
        assert populated == {"0.00", "0.99"}, populated
        ok = True
    finally:
        _report("criterion 2 (noiseless recovery + histogram)", ok)


def test_criterion_03_nmi_grid():
    # 3-role structure, 100 nodes/block, grid step 0.25, 5 realizations:
    # mean NMI >= 0.9 whenever |p_in - p_out| >= 0.5 and <= 0.3 on the
    # diagonal points 0.25/0.5/0.75, in under 5 minutes
    from rolekit.cli import SweepSpec, run_sweep
    ok = False
    try:
        start = time.monotonic()
        spec = SweepSpec(B=np.array(CYCLE3), sizes=np.array([100] * 3),
                         seed=42, grid_step=0.25, realizations=5,
                         measure="browet", clusterer="kmeans_validated",
                         r=3, k_mode="fixed", k=3)
        rows = run_sweep(spec)
        elapsed = time.monotonic() - start
        assert len(rows) == 25
        for p_in, p_out, mean_nmi, _, _ in rows:
            if abs(p_in - p_out) >= 0.5:
                assert mean_nmi >= 0.9, (p_in, p_out, mean_nmi)
            if p_in == p_out and p_in in (0.25, 0.5, 0.75):
                assert mean_nmi <= 0.3, (p_in, p_out, mean_nmi)
        assert elapsed < 300.0, f"took {elapsed:.0f} s"
        ok = True
    finally:
        _report("criterion 3 (desk-scale NMI grid)", ok)


def test_criterion_04_svd_k_estimation():
    # cyclic 3-role graphs, 50/block, p=(0.9, 0.1), r=6: the spectrum of
    # the factor drops after the third value (ratio >= 3) and the gap
    # reader returns q=3, for at least 18 of 20 seeds
    ok = False
    try:
        hits = 0
        for seed in range(20):
            spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[50] * 3, p_in=0.9,
                                    p_out=0.1, seed=seed)
            g, _ = rk.generate_planted(spec)
            factor = rk.browet_factor(g, rk.SimilarityConfig(r=6))
            result = rk.svd_estimate(factor.X, 6)
            sigma = result.trace["sigma"]
            if result.k == 3 and sigma[2] / sigma[3] >= 3.0:
                hits += 1
        assert hits >= 18, f"only {hits}/20 seeds"
        ok = True
    finally:
        _report("criterion 4 (SVD k-estimation)", ok)


def test_criterion_05_k_moving():
    # five-role graphs at low noise, r=7: k-moving lands on k=5 after
    # rejecting 7 and 6, for at least 18 of 20 seeds
    ok = False
    try:
        hits = 0
        for seed in range(20):
            spec = rk.BenchmarkSpec(B=BLOCKS5, sizes=[100] * 5, p_in=0.9,
                                    p_out=0.05, seed=seed)
            g, _ = rk.generate_planted(spec)
            factor = rk.browet_factor(g, rk.SimilarityConfig(r=7))
            result = rk.k_moving(factor.X, 7, rng(1000 + seed))
            steps = {s["k"]: s["passed"] for s in result.trace["steps"]}
            if result.k == 5 and steps.get(7) is False \
                    and steps.get(6) is False:
                hits += 1
        assert hits >= 18, f"only {hits}/20 seeds"
        ok = True
    finally:
        _report("criterion 5 (k-moving)", ok)


def test_criterion_06_hierarchical():
    # noiseless 3-role graph, r=6: exactly three merge events down to k=3
    # for 20/20 seeds
    ok = False
    try:
        spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[50] * 3, p_in=1.0,
                                p_out=0.0, seed=3)
        g, truth = rk.generate_planted(spec)
        factor = rk.browet_factor(g, rk.SimilarityConfig(r=6, beta=0.01))
        for seed in range(20):
            result = rk.hierarchical_estimate(factor.X, 6, rng(seed))
            assert result.k == 3, f"seed {seed}: k={result.k}"
            merges = result.trace["merges"]
            assert len(merges) == 3, f"seed {seed}: {len(merges)} merges"
            model, _ = rk.cluster_validated(factor.X, result.k,
                                            rng(seed).spawn(2)[1])
            assert rk.nmi(truth, model.labels) == 1.0
        ok = True
    finally:
        _report("criterion 6 (hierarchical k estimation)", ok)


def test_criterion_07_timing():
    # (a) salton beats the iterative factor at n=2000, r=5 on median wall
    # time; (b) pipeline time grows at most like n^1.3 over 500..4000 at
    # k=3 (min over repetitions guards against scheduler spikes; |E| grows
    # linearly with n in these benchmarks by construction)
    ok = False
    try:
        rows = run_bench([2000], ["browet", "salton"], repetitions=7, r=5,
                         k=3, seed=0)
        medians = {measure: seconds for _, measure, seconds in rows}
        assert medians["salton"] < medians["browet"], medians

        sizes = [500, 1000, 2000, 4000]
        best, edge_counts = [], []
        for n in sizes:
            g, _ = rk.generate_planted(bench_spec(n, 3, _derived_seed(0, n)))
            beta = beta_estimate(g, 3)
            time_pipeline(g, "browet", 3, 3, beta, 0xBEEF)  # warmup
            best.append(min(time_pipeline(g, "browet", 3, 3, beta, rep)
                            for rep in range(10)))
            edge_counts.append(g.num_edges)
        slope_n = float(np.polyfit(np.log(sizes), np.log(best), 1)[0])
        slope_e = float(np.polyfit(np.log(edge_counts), np.log(best), 1)[0])
        assert slope_n <= 1.3, f"slope vs n: {slope_n:.2f}, times {best}"
        assert slope_e <= 1.3, f"slope vs |E|: {slope_e:.2f}, times {best}"
        ok = True
    finally:
        _report("criterion 7 (timing properties)", ok)


def test_criterion_08_metric_axioms():
    # 1000 random partition pairs on up to 200 nodes: symmetry, range,
    # relabel invariance, and self-NMI exactly 1 for k >= 2
    ok = False
    try:
        gen = rng(314)
        for _ in range(1000):
            n = 2 + int(gen.random() * 199)
            ka = 1 + int(gen.random() * 6)
            kb = 1 + int(gen.random() * 6)
            a = rk.RolePartition.from_labels(
                (gen.random(n) * ka).astype(int))
            b = rk.RolePartition.from_labels(
                (gen.random(n) * kb).astype(int))
            forward = rk.nmi(a, b)
            assert forward == rk.nmi(b, a)
            assert 0.0 <= forward <= 1.0 + 1e-12
            mapping = np.arange(a.k)[::-1]
            relabeled = rk.RolePartition.from_labels(mapping[a.labels])
            assert rk.nmi(relabeled, b) == forward
            if a.k >= 2:
                assert rk.nmi(a, a) == 1.0
        ok = True
    finally:
        _report("criterion 8 (metric axioms)", ok)


def test_criterion_09_clustering_properties():
    # the Lloyd objective-monotonicity assertion is armed in kmeans() and
    # must never fire anywhere in this suite; additionally, over-split k
    # on noiseless data fails validation for 20/20 seeds
    ok = False
    try:
        gen = rng(27)
        for _ in range(50):
            x = gen.random((40, 3))
            kmeans(x, 4, kmeans_pp_init(x, 4, gen))  # assertion armed inside

        spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[50] * 3, p_in=1.0,
                                p_out=0.0, seed=11)
        g, _ = rk.generate_planted(spec)
        factor = rk.browet_factor(g, rk.SimilarityConfig(r=4, beta=0.001))
        for seed in range(20):
            model, val = rk.cluster_validated(
                factor.X, 4, rng(seed), rk.EstimateConfig(max_restarts=10))
            assert not val.passed, f"seed {seed} passed at k=4"
        ok = True
    finally:
        _report("criterion 9 (clustering properties)", ok)


def test_criterion_10_reduced_graph_rule():
    # block-density threshold 0.1 recovers the planted reduced adjacency
    # for at least 99 of 100 seeds at p=(0.9, 0.05)
    ok = False
    try:
        b = np.asarray(CYCLE3)
        hits = 0
        for seed in range(100):
            spec = rk.BenchmarkSpec(B=b, sizes=[40, 40, 40], p_in=0.9,
                                    p_out=0.05, seed=seed)
            g, truth = rk.generate_planted(spec)
            reduced = rk.extract_reduced(g, truth, threshold=0.1)
            hits += bool(np.array_equal(reduced.edges.astype(int), b))
        assert hits >= 99, f"only {hits}/100 seeds"
        ok = True
    finally:
        _report("criterion 10 (reduced-graph rule)", ok)
