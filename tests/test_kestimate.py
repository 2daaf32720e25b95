import numpy as np
import pytest

import rolekit as rk
from reference import BLOCKS5, CYCLE3, rng, uncertified_k_moving


def noiseless_factor(B, sizes, r, seed=2, beta=0.001):
    spec = rk.BenchmarkSpec(B=B, sizes=sizes, p_in=1.0, p_out=0.0, seed=seed)
    g, truth = rk.generate_planted(spec)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=r, beta=beta))
    return f.X, truth


# ---------------------------------------------------------------------------
# k-moving
# ---------------------------------------------------------------------------

def test_kmoving_rejects_down_to_true_k():
    x, truth = noiseless_factor(BLOCKS5, [40] * 5, r=7)
    res = rk.k_moving(x, 7, rng(0))
    assert res.k == 5
    steps = {s["k"]: s["passed"] for s in res.trace["steps"]}
    assert steps[7] is False and steps[6] is False and steps[5] is True
    # the clustering k-moving accepted: k=5 is the third of its 7 streams
    model, val = rk.cluster_validated(x, res.k, rng(0).spawn(7)[2])
    assert val.passed
    assert rk.nmi(truth, model.labels) == 1.0


def test_kmoving_r1_uniform_graph():
    spec = rk.BenchmarkSpec(B=[[1]], sizes=[40], p_in=0.5, p_out=0.5, seed=5)
    g, _ = rk.generate_planted(spec)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=1))
    res = rk.k_moving(f.X, 1, rng(0))
    assert res.k == 1


def test_kmoving_identical_rows_collapse_to_one():
    x = np.tile([2.0, 1.0, 0.0], (25, 1))
    res = rk.k_moving(x, 3, rng(4))
    assert res.k == 1
    steps = {s["k"]: s["passed"] for s in res.trace["steps"]}
    assert steps[3] is False and steps[2] is False


def test_kmoving_passing_k_carries_validation():
    x, _ = noiseless_factor(CYCLE3, [30] * 3, r=5)
    res = rk.k_moving(x, 5, rng(1))
    _, val = rk.cluster_validated(x, res.k, rng(1).spawn(5)[2])
    assert res.k == 3 and val.passed
    assert res.trace["steps"][-1] == {"k": 3, "passed": True,
                                      "min_within": val.min_within,
                                      "max_between": val.max_between,
                                      "failed": []}


def test_kmoving_records_k_above_the_row_count_as_failed():
    # two orthogonal rows cannot seed 4 or 3 centroids: those steps fail
    # without diagnostics and the scan goes on down to k = 2
    res = rk.k_moving(np.eye(2), 4, rng(0))
    assert res.k == 2
    assert res.trace["steps"][:2] == [{"k": 4, "passed": False},
                                      {"k": 3, "passed": False}]
    assert res.trace["steps"][2]["passed"] is True


def test_kmoving_duplicate_rows_are_clustered_with_diagnostics():
    # ten copies of one row are fewer distinct rows than k, not fewer
    # rows: the draw falls back to duplicate seeding, whose collinear
    # centroids fail only the between check, with diagnostics
    res = rk.k_moving(np.tile([1.0, 2.0, 0.5], (10, 1)), 3, rng(0))
    assert res.k == 1
    steps = res.trace["steps"]
    for step, k in zip(steps, (3, 2)):
        assert step == {"k": k, "passed": False, "min_within": 1.0,
                        "max_between": 1.0, "failed": ["between"]}
    assert steps[2]["k"] == 1 and steps[2]["passed"] is True


@pytest.mark.parametrize("seed", range(4))
def test_within_bound_never_certifies_the_noiseless_factor_at_its_true_k(
        seed):
    # the criterion-5 roles without noise: five directions, so no six rows
    # are pairwise apart; at k = 4 two orthogonal roles must share a cluster
    x, _ = noiseless_factor(BLOCKS5, [40] * 5, r=7, seed=seed)
    xn = rk.normalize_rows(x)
    assert [rk.within_bound(xn, k) for k in (7, 6, 5)] == [None] * 3
    assert rk.within_bound(xn, 4) == pytest.approx(np.sqrt(0.5))


def test_kmoving_keeps_the_degenerate_step_where_a_zero_row_bounds_k():
    # a zero row proves every k < n unpassable, but k >= n gets no bound:
    # k = 3 still fails for want of rows and k = 2 is clustered
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    res = rk.k_moving(x, 3, rng(0))
    assert res.k == 0
    assert res.trace["steps"] == [
        {"k": 3, "passed": False},
        {"k": 2, "passed": False, "min_within": 0.0, "max_between": 0.0,
         "failed": ["within"]},
        {"k": 1, "passed": False, "min_within_bound": 0.0}]


@pytest.mark.parametrize("within", [0.0, -0.5, 1.5])
def test_kmoving_without_a_bound_outside_the_unit_interval(within):
    # w <= 0 or w > 1: no certificate, and the scan is the one that
    # clusters every candidate
    x, _ = noiseless_factor(CYCLE3, [20] * 3, r=5)
    cfg = rk.EstimateConfig(within_threshold=within)
    res = rk.k_moving(x, 5, rng(2), cfg)
    assert (res.k, res.trace["steps"]) == uncertified_k_moving(x, 5, rng(2),
                                                               cfg)


# p_in / p_out pairs spread over the probability grid, from noiseless roles
# to inverted ones
CORPUS_PROBABILITIES = [(1.0, 0.0), (0.8, 0.1), (0.5, 0.25), (0.3, 0.05),
                        (0.1, 0.6)]


@pytest.mark.parametrize("B, size", [(CYCLE3, 20), (BLOCKS5, 16)],
                         ids=["cycle3", "blocks5"])
def test_kmoving_agrees_with_the_scan_that_clusters_every_k(
        monkeypatch, B, size):
    # planted graphs at r = 2..7 over the grid: the certificate changes no
    # estimate and no clustered step, clusters no certified candidate, and
    # each certified candidate fails in the scan that clusters it, with a
    # min_within at or below the bound
    clustered = []

    def recording(x, k, stream, cfg):
        clustered.append(k)
        return rk.cluster_validated(x, k, stream, cfg)
    monkeypatch.setattr("rolekit.kestimate.cluster_validated", recording)
    certified = total = 0
    for r in range(2, 8):
        for index, (p_in, p_out) in enumerate(CORPUS_PROBABILITIES):
            seed = 10 * r + index
            spec = rk.BenchmarkSpec(B=B, sizes=[size] * len(B), p_in=p_in,
                                    p_out=p_out, seed=seed)
            g, _ = rk.generate_planted(spec)
            x = rk.browet_factor(g, rk.SimilarityConfig(r=r)).X
            k, expected = uncertified_k_moving(x, r, rng(seed))
            clustered.clear()
            res = rk.k_moving(x, r, rng(seed))
            steps = res.trace["steps"]
            assert res.k == k
            assert [s["k"] for s in steps] == [s["k"] for s in expected]
            for step, oracle in zip(steps, expected):
                total += 1
                if "min_within_bound" in step:
                    certified += 1
                    assert step.keys() == {"k", "passed", "min_within_bound"}
                    assert step["passed"] is oracle["passed"] is False
                    assert oracle["min_within"] <= step["min_within_bound"] \
                        < rk.clustering.WITHIN_THRESHOLD
                else:
                    assert step == oracle
            assert clustered == [s["k"] for s in steps
                                 if "min_within_bound" not in s]
    assert 0 < certified < total


# ---------------------------------------------------------------------------
# hierarchical
# ---------------------------------------------------------------------------

def test_hierarchical_merges_to_true_k():
    x, truth = noiseless_factor(CYCLE3, [50] * 3, r=6)
    res = rk.hierarchical_estimate(x, 6, rng(0))
    assert res.k == 3
    assert len(res.trace["merges"]) == 3
    model, _ = rk.cluster_validated(x, res.k, rng(0).spawn(2)[1])
    assert rk.nmi(truth, model.labels) == 1.0


def test_hierarchical_no_merges_at_true_k():
    x, _ = noiseless_factor(CYCLE3, [40] * 3, r=3)
    res = rk.hierarchical_estimate(x, 3, rng(0))
    assert res.k == 3
    assert res.trace["merges"] == []


def test_hierarchical_identical_rows_merge_to_one():
    x = np.tile([0.0, 3.0], (20, 1))
    res = rk.hierarchical_estimate(x, 4, rng(0))
    assert res.k == 1
    assert len(res.trace["merges"]) == 3


def test_hierarchical_merge_distances_non_decreasing():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[40] * 3, p_in=0.9, p_out=0.1,
                            seed=6)
    g, _ = rk.generate_planted(spec)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=6))
    res = rk.hierarchical_estimate(f.X, 6, rng(3))
    dists = [m["distance"] for m in res.trace["merges"]]
    assert all(b >= a - 1e-9 for a, b in zip(dists, dists[1:]))
    assert res.k == 3


def test_hierarchical_survives_merge_distance_inversion():
    # centroid linkage is not monotone: on this n=900 graph the third
    # merge is closer than the second, which once stopped the estimator
    from rolekit.cli import _rng, bench_spec
    seed = int(np.random.SeedSequence([11, 0]).generate_state(1)[0])
    g, truth = rk.generate_planted(bench_spec(900, 3, seed))
    f = rk.browet_factor(g, rk.SimilarityConfig(r=6))
    res = rk.hierarchical_estimate(f.X, 6, _rng(11).spawn(2)[0])
    dists = [m["distance"] for m in res.trace["merges"]]
    assert len(dists) == 3 and dists[2] < dists[1]
    assert res.k == 3
    model, _ = rk.cluster_validated(f.X, res.k,
                                    _rng(11).spawn(2)[0].spawn(2)[1])
    assert rk.nmi(truth, model.labels) == 1.0


def test_hierarchical_records_an_inverted_merge(monkeypatch):
    # the same inversion from fixed sub-clusters, whatever the restart
    # budget: two along e1, three around e3 (the pair merged first leaves
    # its midpoint closer to the third) and one along e2
    centroids = np.array([[1.0, 0.0, 0.0], [0.1, 0.0, 1.0],
                          [0.0, 1.0, 0.0], [-0.1, 0.0, 1.0],
                          [1.05, 0.0, 0.0], [0.0, 0.18, 1.0]])
    model = rk.ClusterModel(
        centroids=centroids,
        labels=rk.RolePartition(labels=np.repeat(np.arange(6), 10), k=6),
        objective=0.0, iterations=1)

    def fixed(x, k, rng, cfg, require_between=True):
        assert k == 6 and not require_between
        return model, None
    monkeypatch.setattr("rolekit.kestimate.cluster_validated", fixed)
    res = rk.hierarchical_estimate(np.zeros((60, 3)), 6, rng(0))
    dists = [m["distance"] for m in res.trace["merges"]]
    assert dists == pytest.approx([0.0025, 0.04, 0.0324])
    assert dists[2] < dists[1]
    assert res.k == 3


@pytest.mark.parametrize("seed", range(1, 6))
def test_hierarchical_recovers_k_at_twice_the_rank(seed):
    # r = 2k: the within-only pre-clustering fails and reports the best of
    # the default budget's restarts, and the merges must still reach k = 3
    # (on extract's streams)
    from rolekit.cli import _rng, _roles, bench_spec
    g, truth = rk.generate_planted(bench_spec(900, 3, seed))
    f = rk.browet_factor(g, rk.SimilarityConfig(r=6))
    est_rng, cluster_rng = _rng(seed).spawn(2)
    estimate, model, _ = _roles(f.X, 6, "hierarchical", None, cluster_rng,
                                est_rng)
    assert estimate.k == 3
    assert rk.nmi(truth, model.labels) == 1.0


# ---------------------------------------------------------------------------
# svd
# ---------------------------------------------------------------------------

def test_svd_paper_style_profile():
    x = np.diag([98.1088, 62.8004, 56.0030, 8.8261, 8.4482, 8.1000])
    res = rk.svd_estimate(x, 6)
    assert res.k == 3
    assert res.trace["q"] == 3


def test_svd_exact_rank_profile():
    res = rk.svd_estimate(np.diag([5.0, 5.0, 5.0, 0.0, 0.0]), 5)
    assert res.k == 3


def test_svd_noiseless_cycle3_r6():
    x, _ = noiseless_factor(CYCLE3, [50] * 3, r=6)
    res = rk.svd_estimate(x, 6)
    sigma = res.trace["sigma"]
    assert res.k == 3
    assert np.allclose(sigma[:3], sigma[0], rtol=1e-6)
    assert sigma[3] <= 1e-6 * sigma[0]


def test_svd_zero_factor_no_gap():
    res = rk.svd_estimate(np.zeros((10, 4)), 4)
    assert res.k == 0


def test_svd_saturated_flat_profile_reads_full_rank():
    x, _ = noiseless_factor(CYCLE3, [40] * 3, r=3)
    res = rk.svd_estimate(x, 3)
    assert res.k == 3


def test_svd_sign_and_permutation_invariant():
    x = rng(8).random((30, 5))
    base = rk.svd_estimate(x, 5)
    flipped = rk.svd_estimate(x * np.array([1, -1, 1, -1, 1.0]), 5)
    permuted = rk.svd_estimate(x[rng(9).permutation(30)], 5)
    assert base.k == flipped.k == permuted.k
    assert np.allclose(base.trace["sigma"], flipped.trace["sigma"])


def test_svd_requires_r_at_least_two():
    with pytest.raises(ValueError):
        rk.svd_estimate(np.eye(3), 1)


# ---------------------------------------------------------------------------
# cross-method agreement
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("r", [3, 4, 5, 6])
def test_estimators_agree_noiseless(r):
    x, _ = noiseless_factor(CYCLE3, [40] * 3, r=r)
    km = rk.k_moving(x, r, rng(0))
    hi = rk.hierarchical_estimate(x, r, rng(0))
    ks = {km.k, hi.k}
    if r >= 2:
        ks.add(rk.svd_estimate(x, r).k)
    assert ks == {3}
