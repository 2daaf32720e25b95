import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis.extra.numpy import arrays
from hypothesis import strategies as st

import rolekit as rk
from rolekit import clustering
from rolekit.clustering import (_relocate_empty, _squared_distances, kmeans,
                                kmeans_pp_init, validate, within_bound)
from reference import CYCLE3, rng


# ---------------------------------------------------------------------------
# row normalization
# ---------------------------------------------------------------------------

def test_normalize_345():
    xn = rk.normalize_rows(np.array([[3.0, 4.0]]))
    assert np.allclose(xn, [[0.6, 0.8]])


def test_normalize_zero_row_flagged():
    xn = rk.normalize_rows(np.array([[0.0, 0.0], [1.0, 0.0]]))
    assert not xn[0].any()
    assert np.array_equal(xn[1], [1.0, 0.0])


@settings(max_examples=60, deadline=None)
@given(arrays(np.float64, (7, 3), elements=st.floats(-100, 100)))
@example(np.full((7, 3), 1e-161))  # squares underflow
@example(np.full((7, 3), 1e200))  # squares overflow
def test_normalize_norms_unit_or_zero(x):
    xn = rk.normalize_rows(x)
    norms = np.linalg.norm(xn, axis=1)
    assert ((np.abs(norms - 1.0) <= 1e-12) | (norms == 0.0)).all()
    # a row comes out zero exactly when it went in zero
    assert np.array_equal(norms == 0.0, ~x.any(axis=1))


# ---------------------------------------------------------------------------
# k-means++ initialization
# ---------------------------------------------------------------------------

def test_init_k1_is_a_row():
    x = rng(0).random((10, 3))
    init = kmeans_pp_init(x, 1, rng(1))
    assert any(np.array_equal(init[0], row) for row in x)


def test_init_dsquared_forces_distant_row():
    x = np.array([[0.0, 0.0], [0.0, 0.0], [10.0, 0.0]])
    for seed in range(30):
        init = kmeans_pp_init(x, 2, rng(seed))
        pts = {tuple(c) for c in init}
        assert pts == {(0.0, 0.0), (10.0, 0.0)}


def test_init_deterministic():
    x = rng(2).random((40, 4))
    a = kmeans_pp_init(x, 5, rng(7))
    b = kmeans_pp_init(x, 5, rng(7))
    assert np.array_equal(a, b)


def test_init_degenerate_raises():
    x = np.zeros((6, 2))
    with pytest.raises(rk.DegenerateDataError):
        kmeans_pp_init(x, 2, rng(0))


def test_init_duplicates_allowed_fallback():
    x = np.zeros((6, 2))
    init = kmeans_pp_init(x, 3, rng(0), allow_duplicates=True)
    assert init.shape == (3, 2)


# ---------------------------------------------------------------------------
# Lloyd iterations
# ---------------------------------------------------------------------------

def test_kmeans_two_separated_pairs():
    x = np.array([[0.0, 0.0], [0.0, 1.0], [10.0, 0.0], [10.0, 1.0]])
    model = kmeans(x, 2, init=np.array([[0.0, 0.5], [10.0, 0.5]]))
    assert model.objective == pytest.approx(4 * 0.25)
    assert model.labels.labels[0] == model.labels.labels[1]
    assert model.labels.labels[2] == model.labels.labels[3]


def test_kmeans_k1_global_mean():
    x = rng(3).random((20, 3))
    model = kmeans(x, 1, init=x[:1])
    assert np.allclose(model.centroids[0], x.mean(axis=0))
    assert model.objective == pytest.approx(
        float(((x - x.mean(axis=0)) ** 2).sum()))


def test_kmeans_exact_duplicates_objective_zero():
    base = np.eye(3)
    x = np.repeat(base, 4, axis=0)
    model = kmeans(x, 3, init=base.copy())
    assert model.objective == 0.0
    assert model.labels.cluster_sizes().tolist() == [4, 4, 4]


@pytest.mark.parametrize("x, k, init, error, message", [
    (np.eye(3), 2, np.zeros((3, 3)), ValueError,
     r"init must have shape \(2, 3\)"),
    (np.eye(3), 2, np.zeros((2, 2)), ValueError,
     r"init must have shape \(2, 3\)"),
    (np.eye(2), 3, np.zeros((3, 2)), rk.DegenerateDataError,
     "k=3 exceeds 2 rows"),
])
def test_kmeans_guards_raise_their_message(x, k, init, error, message):
    with pytest.raises(error, match=f"^{message}$") as exc:
        kmeans(x, k, init)
    assert type(exc.value) is error


def test_kmeans_no_empty_clusters_even_with_duplicates():
    x = np.repeat(np.eye(2), 5, axis=0)
    init = np.array([x[0], x[1], x[2]])  # two identical centroids
    model = kmeans(x, 3, init=init)
    assert (model.labels.cluster_sizes() > 0).all()


def test_kmeans_centroids_are_member_means(cycle3_noisy):
    g, _ = cycle3_noisy
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    xn = rk.normalize_rows(f.X)
    model = kmeans(xn, 3, kmeans_pp_init(xn, 3, rng(0)))
    for j in range(3):
        members = xn[model.labels.labels == j]
        assert np.allclose(model.centroids[j], members.mean(axis=0))


def _reference_squared_distances(x, centroids, x_sq):
    c_sq = np.sum(centroids ** 2, axis=1)
    return np.maximum(
        x_sq[:, None] + c_sq[None, :] - 2.0 * (x @ centroids.T), 0.0)


def _reference_kmeans(x, k, init, max_iter=300):
    # The mask-loop Lloyd that ``kmeans`` must reproduce bit for bit: one
    # boolean-mask mean per cluster, distances from fresh temporaries, and
    # the stability test after the centroid update.
    x = np.asarray(x, dtype=float)
    x_sq = np.sum(x ** 2, axis=1)
    centroids = np.asarray(init, dtype=float).copy()
    labels = np.full(x.shape[0], -1, dtype=np.int64)
    prev_objective = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = _reference_squared_distances(x, centroids, x_sq)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            _relocate_empty(new_labels, counts,
                            d2[np.arange(x.shape[0]), new_labels])
        for j in range(k):
            centroids[j] = x[new_labels == j].mean(axis=0)
        diffs = x - centroids[new_labels]
        objective = float(np.einsum("ij,ij->", diffs, diffs))
        stable = bool(np.array_equal(new_labels, labels))
        labels = new_labels
        prev_objective = objective
        if stable:
            break
    return centroids, labels, prev_objective, iterations


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       d=st.sampled_from([1, 2, 3, 6, 9, 17]),
       n=st.integers(1, 60), k=st.integers(1, 6), rounded=st.booleans(),
       fortran=st.booleans(), far_init=st.booleans(),
       max_iter=st.sampled_from([1, 2, 300]))
def test_kmeans_bit_identical_to_mask_loop_reference(seed, d, n, k, rounded,
                                                     fortran, far_init,
                                                     max_iter):
    k = min(k, n)
    gen = rng(seed)
    x = gen.normal(size=(n, d)) * gen.choice([1e-3, 1.0, 1e3])
    if rounded:  # ties between centroids and duplicate rows
        x = np.round(x, 0 if d > 1 else 1)
    if d == 1:  # every rolekit caller clusters normalized rows
        x = rk.normalize_rows(x)
    if fortran:
        x = np.asfortranarray(x)
    init = x[gen.choice(n, size=k, replace=True)].copy()
    if far_init:  # a centroid no point is nearest to: forces relocation
        init[-1] = 1e6
    x_sq = np.sum(x ** 2, axis=1)
    assert _squared_distances(x, init, x_sq).tobytes() == \
        _reference_squared_distances(x, init, x_sq).tobytes()
    model = kmeans(x, k, init, max_iter=max_iter)
    centroids, labels, objective, iterations = _reference_kmeans(
        x, k, init, max_iter)
    assert np.array_equal(model.labels.labels, labels)
    assert model.centroids.tobytes() == centroids.tobytes()
    assert model.objective == objective
    assert model.iterations == iterations


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def _model_from(labels, centroids):
    return rk.ClusterModel(centroids=np.asarray(centroids, float),
                           labels=rk.RolePartition.from_labels(labels),
                           objective=0.0, iterations=1)


def test_validate_ideal_orthonormal():
    x = np.repeat(np.eye(3), 2, axis=0)
    model = _model_from([0, 0, 1, 1, 2, 2], np.eye(3))
    val = validate(model, x)
    assert val.min_within == pytest.approx(1.0)
    assert val.max_between == pytest.approx(0.0)
    assert val.passed


def test_validate_oversplit_identical_rows():
    x = np.tile([1.0, 0.0], (6, 1))
    model = _model_from([0, 0, 0, 1, 1, 1], [[1.0, 0.0], [1.0, 0.0]])
    val = validate(model, x)
    assert val.max_between == pytest.approx(1.0)
    assert not val.passed


def test_validate_single_cluster_between_vacuous():
    x = rk.normalize_rows(rng(1).random((8, 2)) + 2.0)
    model = kmeans(x, 1, init=x[:1])
    val = validate(model, x)
    assert val.max_between == 0.0


# ---------------------------------------------------------------------------
# within bound
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("within", [0.1, 0.9, 1.0])
def test_within_bound_of_a_zero_row_is_zero(within):
    x = np.array([[0.0, 0.0], [1.0, 0.0], [0.6, 0.8]])
    assert [within_bound(x, k, within) for k in (1, 2)] == [0.0, 0.0]


@pytest.mark.parametrize("within", [0.0, -0.5, -1.0, 1.0 + 1e-12, 1.5])
def test_within_bound_needs_a_threshold_in_the_unit_interval(within):
    # antipodal and orthogonal rows: certified at 0.9, but a threshold
    # outside (0, 1] gives no certificate
    x = np.array([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0]])
    assert within_bound(x, 2, 0.9) == pytest.approx(np.sqrt(0.5))
    assert within_bound(x, 1, within) is None
    assert within_bound(x, 2, within) is None


def test_within_bound_needs_k_plus_one_rows():
    assert within_bound(np.eye(3), 2) == pytest.approx(np.sqrt(0.5))
    assert within_bound(np.eye(3), 3) is None
    x = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert within_bound(x, 1) == 0.0
    assert within_bound(x, 2) is None


def test_within_bound_keeps_a_margin_below_the_cosine_ceiling():
    # two unit rows at cosine c: certified at k = 1 only when c lies below
    # 2w^2 - 1 by more than the round-off margin (1e-9), and then bounded
    # just below w
    w = 0.9
    ceiling = 2.0 * w ** 2 - 1.0

    def rows(c):
        return np.array([[1.0, 0.0], [c, np.sqrt(1.0 - c * c)]])
    assert within_bound(rows(ceiling), 1, w) is None
    assert within_bound(rows(ceiling - 5e-10), 1, w) is None
    bound = within_bound(rows(ceiling - 2e-9), 1, w)
    assert bound is not None and w - 1e-9 < bound < w


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 14),
       d=st.integers(1, 4), k=st.integers(1, 6), rounded=st.booleans(),
       within=st.sampled_from([0.3, 0.7, 0.9, 0.99, 1.0]))
def test_within_bound_proves_every_restart_fails(seed, n, d, k, rounded,
                                                 within):
    # a certified k: no restart passes, each restart's min_within is at or
    # below the bound, and the bound is below the threshold
    x = rng(seed).standard_normal((n, d))
    if rounded:  # duplicates, antipodes and zero rows
        x = np.round(x)
    bound = within_bound(rk.normalize_rows(x), k, within)
    if bound is None:
        return
    assert bound < within
    cfg = rk.EstimateConfig(within_threshold=within, between_threshold=1.0)
    streams = rng(seed).spawn(cfg.max_restarts)
    for stream in streams:
        _, val = rk.cluster_validated(x, k, stream, cfg)
        assert "within" in val.failed
        assert val.min_within <= bound


# ---------------------------------------------------------------------------
# validated restarts
# ---------------------------------------------------------------------------

def test_cluster_validated_ideal_passes_first_restart():
    x = np.repeat(np.eye(4), 10, axis=0)
    model, val = rk.cluster_validated(x, 4, rng(0))
    assert val.passed and model.restarts_used == 1


def test_cluster_validated_oversplit_never_passes(cycle3_noiseless):
    g, _ = cycle3_noiseless
    f = rk.browet_factor(g, rk.SimilarityConfig(r=4, beta=0.001))
    model, val = rk.cluster_validated(f.X, 4, rng(5),
                                      rk.EstimateConfig(max_restarts=8))
    assert not val.passed
    assert model.restarts_used == 8


def _restart_rows(kind, k, seed):
    """Rows for restart tests: ``ideal`` (orthonormal roles, repeated),
    ``noisy`` (the same with Gaussian noise) or ``oversplit`` (``k``
    asked of fewer roles than that, with noise)."""
    roles = k - 1 if kind == "oversplit" else k
    x = np.repeat(np.eye(max(roles, 1), k + 1), 6, axis=0)
    if kind != "ideal":
        x = x + rng(seed).normal(scale=0.15, size=x.shape)
    return x


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(["ideal", "noisy", "oversplit"]),
       k=st.integers(1, 5), data_seed=st.integers(0, 2 ** 16),
       seed=st.integers(0, 2 ** 16))
def test_cluster_validated_budget_only_cuts_failing_calls(kind, k, data_seed,
                                                          seed):
    # restart t's stream does not depend on the budget: a call that passes
    # within the default budget returns what a 50-restart call returns, and
    # one that fails reports the best of the first restarts of that call
    x = _restart_rows(kind, k, data_seed)
    model, val = rk.cluster_validated(x, k, rng(seed))
    long_model, long_val = rk.cluster_validated(
        x, k, rng(seed), rk.EstimateConfig(max_restarts=50))
    if val.passed:
        assert np.array_equal(model.labels.labels, long_model.labels.labels)
        assert model.centroids.tobytes() == long_model.centroids.tobytes()
        assert (model.objective, model.restarts_used, val) == \
            (long_model.objective, long_model.restarts_used, long_val)
    else:
        assert model.restarts_used == clustering.DEFAULT_MAX_RESTARTS
        if not long_val.passed:
            assert long_model.objective <= model.objective


@pytest.mark.parametrize("degenerate", [False, True])
def test_cluster_validated_streams_are_spawned_children(monkeypatch,
                                                       degenerate):
    # every seeding of a failing call draws from child 2t of
    # rng.spawn(2 * max_restarts), and after a degenerate draw (two
    # distinct rows, k = 3) from child 2t + 1 as well
    rows = (np.repeat(np.eye(2), 4, axis=0) if degenerate
            else _restart_rows("oversplit", 3, 0))
    cfg = rk.EstimateConfig(max_restarts=4)
    seen = []
    seed_rows = clustering.kmeans_pp_init

    def recording(x, k, stream, allow_duplicates=False):
        seen.append(stream.bit_generator.state)
        return seed_rows(x, k, stream, allow_duplicates)

    monkeypatch.setattr(clustering, "kmeans_pp_init", recording)
    parent = rng(3)
    assert not rk.cluster_validated(rows, 3, parent, cfg)[1].passed
    children = [c.bit_generator.state
                for c in rng(3).spawn(2 * cfg.max_restarts)]
    assert seen == (children if degenerate else children[::2])


def test_cluster_validated_deterministic(cycle3_noisy):
    g, _ = cycle3_noisy
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    m1, v1 = rk.cluster_validated(f.X, 3, rng(11))
    m2, v2 = rk.cluster_validated(f.X, 3, rng(11))
    assert np.array_equal(m1.labels.labels, m2.labels.labels)
    assert v1 == v2


def test_cluster_validated_recovers_noiseless_truth(cycle3_noiseless):
    g, truth = cycle3_noiseless
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    for seed in range(10):
        model, val = rk.cluster_validated(f.X, 3, rng(seed))
        assert val.passed
        assert rk.nmi(truth, model.labels) == 1.0


def test_label_permutation_leaves_scores_unchanged():
    x = np.repeat(np.eye(3), 3, axis=0)
    model = _model_from([0, 0, 0, 1, 1, 1, 2, 2, 2], np.eye(3))
    relabeled = _model_from([2, 2, 2, 0, 0, 0, 1, 1, 1],
                            np.eye(3)[[1, 2, 0]])
    v1, v2 = validate(model, x), validate(relabeled, x)
    assert v1.min_within == v2.min_within
    assert v1.max_between == v2.max_between


def test_row_permutation_equivariance():
    x = rng(9).random((30, 3))
    xn = rk.normalize_rows(x)
    init = kmeans_pp_init(xn, 3, rng(1))
    perm = rng(2).permutation(30)
    m = kmeans(xn, 3, init)
    m_perm = kmeans(xn[perm], 3, init)
    assert m_perm.objective == pytest.approx(m.objective, abs=1e-9)
