from collections import Counter

import numpy as np
import pytest
import scipy.sparse as sp

import rolekit as rk
from rolekit.similarity import _gram_rel_change, beta_estimate
from reference import (BLOCKS5, CYCLE3, dense_oracle, gram, load_factor,
                       rng)


def salton_matrix(g):
    """Dense degree-normalized concatenation [C | D^T]."""
    a = g.adj.toarray()
    k_out, k_in = rk.degrees(g)
    c = np.divide(a, np.sqrt(k_out)[:, None], out=np.zeros_like(a),
                  where=k_out[:, None] > 0)
    d = np.divide(a, np.sqrt(k_in)[None, :], out=np.zeros_like(a),
                  where=k_in[None, :] > 0)
    return np.hstack([c, d.T])


def salton_dense(g):
    """Direct dense evaluation of the degree-normalized similarity."""
    m = salton_matrix(g)
    return m @ m.T


# ---------------------------------------------------------------------------
# initial factor
# ---------------------------------------------------------------------------

def test_initial_factor_cycle3_spectrum(cycle3_noiseless):
    # analytic: the one-step count matrix is block-diagonal with three
    # all-ones blocks scaled by 100, eigenvalue 5000 of multiplicity 3
    g, _ = cycle3_noiseless
    x1 = rk.initial_factor(g, 3)
    sigma = np.linalg.norm(x1, axis=0)
    assert np.allclose(sigma, np.sqrt(5000), atol=1e-6)


def test_initial_factor_empty_graph():
    g = rk.DirectedGraph.from_edges(5, [])
    assert not rk.initial_factor(g, 3).any()


def test_initial_factor_single_edge():
    g = rk.DirectedGraph.from_edges(2, [(0, 1)])
    x1 = rk.initial_factor(g, 2)
    assert np.allclose(x1 @ x1.T, np.eye(2), atol=1e-12)


def test_initial_factor_best_rank_r(cycle3_noisy):
    g, _ = cycle3_noisy
    x1 = rk.initial_factor(g, 4)
    a = g.adj.toarray()
    s1 = a @ a.T + a.T @ a
    w = np.sort(np.linalg.eigvalsh(s1))[::-1]
    best = np.sqrt(np.sum(w[4:] ** 2))
    assert np.linalg.norm(x1 @ x1.T - s1) <= best * (1 + 1e-8)


def test_initial_factor_rank_cap():
    g = rk.DirectedGraph.from_edges(3, [(0, 1)])
    with pytest.raises(ValueError):
        rk.initial_factor(g, 4)


# ---------------------------------------------------------------------------
# iterative factor
# ---------------------------------------------------------------------------

def test_browet_beta_zero_is_initial_factor(cycle3_noisy):
    g, _ = cycle3_noisy
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3, beta=0.0))
    x1 = rk.initial_factor(g, 3)
    assert f.iterations == 1 and f.converged
    assert np.allclose(gram(f), x1 @ x1.T, atol=1e-9)


def test_browet_explicit_beta_starts_from_initial_factor(cycle3_noisy,
                                                         monkeypatch):
    # one X1 path: an explicit beta gets its first iterate from
    # initial_factor, resolved at call time
    from rolekit import similarity
    g, _ = cycle3_noisy
    calls = []

    def counted(graph, r):
        calls.append(r)
        return rk.initial_factor(graph, r)
    monkeypatch.setattr(similarity, "initial_factor", counted)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3, beta=0.01))
    assert calls == [3] and f.beta == 0.01
    rk.browet_factor(g, rk.SimilarityConfig(r=3))
    assert calls == [3]


def test_browet_matches_oracle_small_graph():
    spec = rk.BenchmarkSpec(B=[[0, 1], [1, 0]], sizes=[10, 10], p_in=0.9,
                            p_out=0.1, seed=13)
    g, _ = rk.generate_planted(spec)
    beta = beta_estimate(g, g.n)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=g.n, beta=beta, tol=1e-10,
                                                max_iter=200))
    oracle = dense_oracle(g, beta, tol=1e-12)
    assert np.abs(gram(f) - oracle).max() <= 1e-6


def test_browet_oracle_equivalence_n50():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[17, 17, 16], p_in=0.8,
                            p_out=0.15, seed=21)
    g, _ = rk.generate_planted(spec)
    beta = beta_estimate(g, g.n)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=g.n, beta=beta, tol=1e-10,
                                                max_iter=200))
    assert np.abs(gram(f) - dense_oracle(g, beta, tol=1e-12)).max() <= 1e-6


def test_browet_noiseless_inner_products_binary():
    # 200 nodes per block: after row normalization every pairwise inner
    # product is 0 or 1 up to 1e-8
    spec = rk.BenchmarkSpec(B=BLOCKS5, sizes=[200] * 5, p_in=1.0, p_out=0.0,
                            seed=0)
    g, _ = rk.generate_planted(spec)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=5))
    xn = rk.normalize_rows(f.X)
    gram = xn @ xn.T
    dist_to_binary = np.minimum(np.abs(gram), np.abs(gram - 1.0))
    assert dist_to_binary.max() <= 1e-8


def test_browet_divergence_error():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[20, 20, 20], p_in=0.9,
                            p_out=0.1, seed=2)
    g, _ = rk.generate_planted(spec)
    with pytest.raises(rk.DivergenceError, match="iteration"):
        rk.browet_factor(g, rk.SimilarityConfig(r=3, beta=1e150, max_iter=30))


def test_browet_nonnegative_entries_noiseless(cycle3_noiseless):
    g, _ = cycle3_noiseless
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    assert gram(f).min() >= -1e-9


def test_factor_columns_orthogonal(cycle3_noisy):
    g, _ = cycle3_noisy
    for f in (rk.browet_factor(g, rk.SimilarityConfig(r=4)),
              rk.salton_factor(g, 4)):
        gram = f.X.T @ f.X
        off = gram - np.diag(np.diag(gram))
        assert np.abs(off).max() <= 1e-8 * max(gram.max(), 1.0)
        norms = np.linalg.norm(f.X, axis=0)
        assert (np.diff(norms) <= 1e-9).all()


# ---------------------------------------------------------------------------
# salton factor
# ---------------------------------------------------------------------------

def test_salton_shared_parent_and_child():
    # nodes 1 and 2 share their only parent (0) and only child (3)
    g = rk.load_edge_list("0 1\n0 2\n1 3\n2 3\n")
    s = gram(rk.salton_factor(g, 4))
    assert abs(s[1, 2] - 2.0) <= 1e-10


def test_salton_diagonal_two():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[8, 8, 8], p_in=0.9, p_out=0.2,
                            seed=31)
    g, _ = rk.generate_planted(spec)
    k_out, k_in = rk.degrees(g)
    s = gram(rk.salton_factor(g, g.n))
    active = (k_out > 0) & (k_in > 0)
    assert np.allclose(np.diag(s)[active], 2.0, atol=1e-10)


def test_salton_isolated_node_zero_row():
    g = rk.DirectedGraph.from_edges(4, [(0, 1), (1, 2)])
    f = rk.salton_factor(g, 3)
    assert np.linalg.norm(f.X[3]) == 0.0


def test_salton_full_rank_matches_dense():
    spec = rk.BenchmarkSpec(B=[[1, 1], [0, 1]], sizes=[20, 20], p_in=0.7,
                            p_out=0.2, seed=5)
    g, _ = rk.generate_planted(spec)
    f = rk.salton_factor(g, g.n)
    assert np.abs(gram(f) - salton_dense(g)).max() <= 1e-10
    assert f.iterations == 1 and f.beta == 0.0


def test_salton_matrix_bits_match_the_multiply_construction(monkeypatch):
    # [C | D^T] is built by scaling copies of A's and A^T's stored entries;
    # it must hold the bits of two multiply() products and a transpose
    def old_construction(g):
        k_out, k_in = rk.degrees(g)
        with np.errstate(divide="ignore"):
            row_scale = np.where(k_out > 0, 1.0 / np.sqrt(k_out), 0.0)
            col_scale = np.where(k_in > 0, 1.0 / np.sqrt(k_in), 0.0)
        c = g.adj.multiply(row_scale[:, None]).tocsr()
        d = g.adj.multiply(col_scale[None, :]).tocsr()
        return sp.hstack([c, d.T], format="csr")

    built = []

    def capture(m, r):
        built.append(m)
        raise StopIteration

    monkeypatch.setattr("rolekit.similarity._truncated_svd", capture)
    graphs = [rk.DirectedGraph.from_edges(5, [(0, 1), (0, 2), (1, 1),
                                              (3, 0)])]  # node 4 isolated
    for sizes, p_out in (([30, 30, 30], 0.1), ([200, 300, 500], 0.02)):
        spec = rk.BenchmarkSpec(B=CYCLE3, sizes=sizes, p_in=0.3, p_out=p_out,
                                seed=13)
        graphs.append(rk.generate_planted(spec)[0])
    for g in graphs:
        with pytest.raises(StopIteration):
            rk.salton_factor(g, 2)
        new, old = built.pop(), old_construction(g)
        assert new.shape == old.shape
        for part in ("indptr", "indices", "data"):
            np.testing.assert_array_equal(getattr(new, part),
                                          getattr(old, part))
            assert getattr(new, part).dtype == getattr(old, part).dtype


def test_salton_nonnegative_noiseless(cycle3_noiseless):
    g, _ = cycle3_noiseless
    assert gram(rk.salton_factor(g, 3)).min() >= -1e-9


# ---------------------------------------------------------------------------
# beta estimate
# ---------------------------------------------------------------------------

def test_beta_estimate_empty_graph():
    with pytest.raises(rk.SpectralGapError):
        beta_estimate(rk.DirectedGraph.from_edges(4, []), 2)


def test_beta_estimate_cycle3_hand_value(cycle3_noiseless):
    # |E| = 7500, top squared singular value 5000, gap 5000 - 0:
    # bound = 1 / (2 * 7500 * (8 * 5000/5000 + 1)) = 1/135000
    g, _ = cycle3_noiseless
    beta = beta_estimate(g, 3)
    assert beta == pytest.approx(0.99 / np.sqrt(135000), rel=1e-9)


def test_beta_estimate_zero_gap():
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[10, 10, 10], p_in=1.0, p_out=0.0, seed=0))
    with pytest.raises(rk.SpectralGapError, match="explicit beta"):
        beta_estimate(g, 5)  # rank is 3; the 4th..6th values vanish


def test_beta_estimate_keeps_iteration_stable():
    for seed in range(50):
        spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[20, 20, 20], p_in=0.8,
                                p_out=0.2, seed=seed)
        g, _ = rk.generate_planted(spec)
        beta = beta_estimate(g, 3)
        f = rk.browet_factor(g, rk.SimilarityConfig(r=3, beta=beta))
        assert f.converged and np.isfinite(f.X).all()


def _count_svds(monkeypatch, calls):
    # records (k, tol) of every ARPACK call; svds defaults to tol=0
    import scipy.sparse.linalg as spla
    svds = spla.svds

    def counted_svds(m, k, **kwargs):
        calls.append((k, kwargs.get("tol", 0)))
        return svds(m, k=k, **kwargs)
    monkeypatch.setattr(spla, "svds", counted_svds)


@pytest.mark.parametrize("n", [150, 900])  # dense Gram eigensolve, ARPACK
def test_default_beta_shares_one_svd_with_first_iterate(monkeypatch, n):
    from rolekit.cli import bench_spec
    g, _ = rk.generate_planted(bench_spec(n, 3, 11))
    calls = []
    _count_svds(monkeypatch, calls)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    # on the large graph a loose rank-3 solve routes to the sigma_4 bound,
    # then sigma_1..sigma_3 and X1 come from one tol=0 ARPACK call
    assert calls == ([] if n <= 400 else [(3, 0.1), (3, 0)])
    beta = beta_estimate(g, 3)
    assert f.beta == beta
    calls.clear()
    given = rk.browet_factor(g, rk.SimilarityConfig(r=3, beta=beta))
    # an explicit beta needs no sigma_{r+1}
    assert calls == ([] if n <= 400 else [(3, 0)])
    assert _gram_rel_change(given.X, f.X) <= 1e-6


def _exact_route(g, r):
    # the route without the certificate: r+1 exact triplets, as before it
    from rolekit.similarity import _beta_bound, _concat_adj, _truncated_svd
    x1, sigma = _truncated_svd(_concat_adj(g), r + 1)
    return x1[:, :r], _beta_bound(sigma, r, g)


def _first_iterate(g, r):
    # max_iter=1 returns X1 itself
    f = rk.browet_factor(g, rk.SimilarityConfig(r=r, max_iter=1))
    assert f.iterations == 1
    return f.X, f.beta


def test_over_rank_default_beta_takes_the_exact_route(monkeypatch):
    # r = 2k: sigma_6 and sigma_7 both lie in the noise bulk, too close for
    # the bound to certify a gap, so one tol=0 call asks for r+1 triplets
    from rolekit.cli import bench_spec
    g, _ = rk.generate_planted(bench_spec(900, 3, 11))
    x_ref, beta_ref = _exact_route(g, 6)
    calls = []
    _count_svds(monkeypatch, calls)
    x1, beta = _first_iterate(g, 6)
    assert calls == [(6, 0.1), (7, 0)]
    assert beta == beta_ref and np.array_equal(x1, x_ref)


def test_routing_solve_without_convergence_takes_the_exact_route(
        monkeypatch):
    import scipy.sparse.linalg as spla
    from rolekit.cli import bench_spec
    g, _ = rk.generate_planted(bench_spec(900, 3, 11))
    x_ref, beta_ref = _exact_route(g, 3)
    svds = spla.svds

    def loose_fails(m, k, **kwargs):
        if kwargs.get("tol", 0) > 0:
            raise spla.ArpackNoConvergence("no convergence", None, None)
        return svds(m, k=k, **kwargs)
    monkeypatch.setattr(spla, "svds", loose_fails)
    x1, beta = _first_iterate(g, 3)
    assert beta == beta_ref and np.array_equal(x1, x_ref)


def test_default_beta_keeps_rank_and_empty_graph_errors():
    with pytest.raises(ValueError, match="exceeds node count"):
        rk.browet_factor(rk.DirectedGraph.from_edges(3, [(0, 1)]),
                         rk.SimilarityConfig(r=4))
    with pytest.raises(rk.SpectralGapError, match="empty graph"):
        rk.browet_factor(rk.DirectedGraph.from_edges(4, []),
                         rk.SimilarityConfig(r=2))


# ---------------------------------------------------------------------------
# dense kernel: eigensolve on the Gram against a full LAPACK SVD
# ---------------------------------------------------------------------------

def _unpadded_beta(sigma, r, num_edges):
    # beta_estimate's bound with the gap taken as is
    sigma_sq = sigma ** 2
    gap = sigma_sq[r - 1] - sigma_sq[r]
    if gap <= 1e-12 * max(sigma_sq[0], 1.0):
        return None
    bound_sq = 1.0 / (2.0 * num_edges * (8.0 * sigma_sq[0] / gap + 1.0))
    return 0.99 * float(np.sqrt(bound_sq))


@pytest.fixture(scope="module")
def sweep_graphs():
    # the graphs `rolekit sweep` builds for cycle-3, sizes [100, 100, 100],
    # grid_step 0.25, two realizations per cell, seed 1, each with the
    # full LAPACK SVD of its [A | A^T]
    from rolekit.cli import _derived_seed, _grid_values
    from rolekit.similarity import _concat_adj
    graphs = []
    for i, p_in in enumerate(_grid_values(0.25)):
        for j, p_out in enumerate(_grid_values(0.25)):
            for t in range(2):
                spec = rk.BenchmarkSpec(
                    B=CYCLE3, sizes=[100, 100, 100], p_in=p_in, p_out=p_out,
                    seed=_derived_seed(1, i, j, t, 0))
                g, _ = rk.generate_planted(spec)
                u, s, _ = np.linalg.svd(_concat_adj(g).toarray(),
                                        full_matrices=False)
                graphs.append((p_in, p_out, g, (u, s)))
    return graphs


def _check_against_lapack(x, sigma, svd, r):
    # sigma^2 to 1e-12 sigma_1^2 (sigma itself is not that accurate where
    # it is near zero), and X1 where the spectrum has a rank-r gap
    u, s_ref = svd
    k = len(sigma)
    scale = max(s_ref[0] ** 2, 1.0)
    assert np.isfinite(sigma).all() and np.isfinite(x).all()
    assert np.abs(sigma ** 2 - s_ref[:k] ** 2).max() <= 1e-12 * scale
    if s_ref[r - 1] ** 2 - s_ref[r] ** 2 > 1e-12 * scale:
        x_ref = u[:, :r] * s_ref[:r]
        assert _gram_rel_change(x[:, :r], x_ref) <= 1e-6


def test_dense_kernel_matches_lapack_svd_on_sweep_graphs(sweep_graphs):
    from rolekit.similarity import _concat_adj, _truncated_svd
    for _, _, g, svd in sweep_graphs:
        x, sigma = _truncated_svd(_concat_adj(g), 4)
        _check_against_lapack(x, sigma, svd, 3)


def test_salton_dense_kernel_matches_lapack_svd_on_sweep_graphs(
        sweep_graphs):
    for _, _, g, _ in sweep_graphs[::2]:  # one realization per cell
        f = rk.salton_factor(g, 3)
        u, s, _ = np.linalg.svd(salton_matrix(g), full_matrices=False)
        _check_against_lapack(f.X, np.linalg.norm(f.X, axis=0), (u, s), 3)


def test_default_beta_not_above_exact_svd_bound(sweep_graphs):
    # round-off in the Gram eigensolve must never raise beta: the padded
    # bound stays at or below the unpadded one on LAPACK's sigma
    checked = 0
    for p_in, p_out, g, (_, sigma) in sweep_graphs:
        exact = _unpadded_beta(sigma, 3, g.num_edges)
        if (p_in, p_out) in ((0.0, 0.0), (1.0, 1.0)):
            # the empty and the complete graph have no rank-3 gap
            assert exact is None
        try:
            f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
        except rk.SpectralGapError:
            continue
        assert exact is not None and f.beta <= exact
        checked += 1
    assert checked >= len(sweep_graphs) - 4


def _exact_spectrum(g):
    # squared singular values of [A | A^T], descending: eigenvalues of the
    # dense Gram A A^T + A^T A
    a = g.adj.toarray()
    return np.linalg.eigvalsh(a @ a.T + a.T @ a)[::-1]


def _check_certified_beta(g, r, lam, certified):
    # the default beta is at most the one the exact spectrum gives, a gap
    # error comes only where the exact spectrum has no gap, and where the
    # certificate routes, its bound lies above the exact sigma_{r+1}^2;
    # returns the route taken
    from rolekit.similarity import _concat_adj, _next_sigma_sq_bound
    sigma = np.sqrt(np.maximum(lam[:r + 1], 0.0))
    exact = _unpadded_beta(sigma, r, g.num_edges)
    try:
        beta = beta_estimate(g, r)
    except rk.SpectralGapError:
        assert exact is None
        return "gap error"
    assert exact is not None and beta <= exact
    bound = _next_sigma_sq_bound(g, _concat_adj(g), r)
    if bound is None:
        return "exact or dense"
    # the dense eigenvalues are accurate to about n * eps * lambda_1
    assert bound >= lam[r] - g.n * np.finfo(float).eps * lam[0]
    certified.append(beta / exact)
    return "certified"


# Routing counts of the two fuzz tests below: 44 of their 110 cases take
# the certificate, 60 the exact or dense route and 6 end in a gap error.
def test_certified_beta_not_above_exact_on_sweep_graphs(monkeypatch,
                                                        sweep_graphs):
    # the sweep graphs (n = 300) forced onto the ARPACK path
    monkeypatch.setattr("rolekit.similarity._DENSE_SVD_LIMIT", 0)
    certified = []
    routes = Counter()
    for _, _, g, _ in sweep_graphs[::2]:  # one realization per cell
        lam = _exact_spectrum(g)
        for r in (2, 3):
            routes[_check_certified_beta(g, r, lam, certified)] += 1
    assert routes == {"certified": 20, "exact or dense": 24, "gap error": 6}
    assert min(certified) >= 0.9


def test_certified_beta_not_above_exact_on_bench_graphs():
    from rolekit.cli import bench_spec
    certified = []
    routes = Counter()
    for n in (500, 900, 1500):
        for seed in range(4):
            g, _ = rk.generate_planted(bench_spec(n, 3, seed))
            lam = _exact_spectrum(g)
            for r in (1, 2, 3, 4, 6):
                routes[_check_certified_beta(g, r, lam, certified)] += 1
    assert routes == {"certified": 24, "exact or dense": 36}
    assert min(certified) >= 0.9


def test_certificate_on_a_rank_r_graph(monkeypatch):
    # noiseless cycle-3 with unequal blocks has rank 3 and distinct
    # values: the deflated Gram vanishes, Lanczos breaks down at once and
    # the bound is round-off, not NaN
    from rolekit.similarity import _concat_adj, _next_sigma_sq_bound
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[200, 210, 220], p_in=1.0, p_out=0.0, seed=0))
    lam = _exact_spectrum(g)
    bound = _next_sigma_sq_bound(g, _concat_adj(g), 3)
    assert bound is not None and 0.0 <= bound <= 1e-6 * lam[0]
    certified = []
    _check_certified_beta(g, 3, lam, certified)
    assert len(certified) == 1 and certified[0] >= 0.9


class _Recorded:
    # an adjacency operator that keeps what it is applied to
    def __init__(self, a):
        self.a, self.inputs = a, []

    def __matmul__(self, x):
        self.inputs.append(x)  # kept alive, so ids stay distinct
        return self.a @ x


@pytest.mark.parametrize("r, steps", [
    (3, 33),  # wide gap: the first checkpoint's beta is within 3%
    (1, 73),  # narrow gap (sigma_2 is a role's): runs to the second
])
def test_certificate_checkpoints_and_basis(r, steps):
    # n = 900: the checkpoints (eps 0.25 and 0.05, each at delta / 2) fall
    # after 33 and 73 Gram products; one reorthogonalization pass per
    # step keeps the basis orthonormal
    from types import SimpleNamespace
    from rolekit.cli import bench_spec
    from rolekit.similarity import _concat_adj, _next_sigma_sq_bound
    g, _ = rk.generate_planted(bench_spec(900, 3, 0))
    spy = SimpleNamespace(n=g.n, num_edges=g.num_edges, adj=_Recorded(g.adj),
                          adj_t=_Recorded(g.adj_t))
    assert _next_sigma_sq_bound(spy, _concat_adj(g), r) is not None
    # a Gram product applies both operators to the basis vector v, and
    # each to the other's image of v
    assert len(spy.adj.inputs) == len(spy.adj_t.inputs) == 2 * steps
    seen_t = {id(x) for x in spy.adj_t.inputs}
    basis = np.array([x for x in spy.adj.inputs if id(x) in seen_t])
    assert basis.shape == (steps, g.n)
    assert np.linalg.norm(basis @ basis.T - np.eye(steps), 2) <= 1e-10


def test_certified_beta_is_deterministic():
    from rolekit.cli import bench_spec
    g, _ = rk.generate_planted(bench_spec(900, 3, 11))
    first = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    again = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    assert first.beta == again.beta
    assert np.array_equal(first.X, again.X)


def test_default_beta_is_deterministic_on_repeated_singular_values():
    # noiseless cycle-3 with equal blocks: sigma_1 = sigma_2 = sigma_3, the
    # case where an exact svds(k=r+1) drifts in the last digits between
    # calls; the certificate route keeps the factor reproducible, which
    # the CLI's determinism promise relies on
    from rolekit.similarity import _concat_adj, _next_sigma_sq_bound
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[200] * 3, p_in=1.0, p_out=0.0, seed=0))
    assert _next_sigma_sq_bound(g, _concat_adj(g), 3) is not None
    first = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    again = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    assert first.beta == again.beta
    assert first.X.tobytes() == again.X.tobytes()


@pytest.mark.parametrize("block", [10, 100])
def test_complete_graph_has_no_gap_and_no_nan(block):
    # rank 1: the Gram's zero eigenvalues come back as round-off of either
    # sign (negative at block 10, positive at block 100)
    from rolekit.similarity import _concat_adj, _truncated_svd
    n = 3 * block
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[block] * 3, p_in=1.0, p_out=1.0, seed=0))
    x, sigma = _truncated_svd(_concat_adj(g), 4)
    assert np.isfinite(sigma).all() and np.isfinite(x).all()
    assert sigma[0] ** 2 == pytest.approx(2 * n ** 2, rel=1e-12)
    with pytest.raises(rk.SpectralGapError, match="no rank-3 gap"):
        rk.browet_factor(g, rk.SimilarityConfig(r=3))
    with pytest.raises(rk.SpectralGapError, match="empty graph"):
        rk.browet_factor(rk.DirectedGraph.from_edges(n, []),
                         rk.SimilarityConfig(r=3))


@pytest.mark.parametrize("b, sizes, shown", [
    ([[1]], [300], "0 and 0"),       # complete graph, dense Gram eigensolve
    ([[1]], [500], "0 and 0"),       # ARPACK, whose round-off varies by run
    (CYCLE3, [10] * 3, "200 and 200"),
], ids=["dense", "arpack", "above-floor"])
def test_gap_error_prints_round_off_as_zero(b, sizes, shown):
    # squared values at or below n * eps * sigma_1^2 print as 0, so the
    # message is the same on every run
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=b, sizes=sizes, p_in=1.0, p_out=0.0, seed=0))
    with pytest.raises(rk.SpectralGapError) as exc:
        beta_estimate(g, 2)
    assert str(exc.value) == (f"squared singular values {shown} leave no "
                              f"rank-2 gap; pass an explicit beta")


def test_near_full_rank_takes_the_dense_kernel_above_the_size_limit(
        monkeypatch):
    # n = 402 > 400 but want >= k_max // 2, so no ARPACK call
    import scipy.sparse.linalg as spla
    from rolekit.cli import bench_spec
    from rolekit.similarity import _DENSE_SVD_LIMIT, _concat_adj, _truncated_svd
    g, _ = rk.generate_planted(bench_spec(402, 3, 5))
    assert g.n > _DENSE_SVD_LIMIT

    def no_svds(*args, **kwargs):
        raise AssertionError("ARPACK called")
    monkeypatch.setattr(spla, "svds", no_svds)
    m = _concat_adj(g)
    x, sigma = _truncated_svd(m, g.n // 2)
    u, s, _ = np.linalg.svd(m.toarray(), full_matrices=False)
    _check_against_lapack(x, sigma, (u, s), 3)


# ---------------------------------------------------------------------------
# dense oracle
# ---------------------------------------------------------------------------

def test_oracle_beta_zero_is_one_step_counts():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[5, 5, 5], p_in=0.8, p_out=0.2,
                            seed=17)
    g, _ = rk.generate_planted(spec)
    a = g.adj.toarray()
    assert np.allclose(dense_oracle(g, 0.0), a @ a.T + a.T @ a)


def test_oracle_symmetric():
    spec = rk.BenchmarkSpec(B=[[0, 1], [1, 1]], sizes=[8, 8], p_in=0.7,
                            p_out=0.3, seed=23)
    g, _ = rk.generate_planted(spec)
    s = dense_oracle(g, 0.05)
    assert np.abs(s - s.T).max() <= 1e-9


def test_oracle_two_node_fixed_point():
    # single edge, beta=0.1: the recursion couples the two diagonal
    # entries, s00 = 1 + beta^2 s11 and s11 = 1 + beta^2 s00, giving
    # 1 / (1 - beta^2) on the diagonal and zero off it
    g = rk.DirectedGraph.from_edges(2, [(0, 1)])
    s = dense_oracle(g, 0.1, tol=1e-14)
    expected = np.diag([1.0 / 0.99, 1.0 / 0.99])
    assert np.allclose(s, expected, atol=1e-12)


def test_oracle_guard():
    g = rk.DirectedGraph.from_edges(500, [(0, 1)])
    with pytest.raises(ValueError, match="n <= 200"):
        dense_oracle(g, 0.1)


# ---------------------------------------------------------------------------
# factor export
# ---------------------------------------------------------------------------

def test_factor_export_roundtrip(tmp_path, cycle3_noisy):
    from rolekit.similarity import save_factor
    g, _ = cycle3_noisy
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    save_factor(f, tmp_path / "x.csv", tmp_path / "x.json")
    again = load_factor(tmp_path / "x.csv", tmp_path / "x.json")
    assert np.allclose(again.X, f.X, atol=1e-15)
    assert (again.measure, again.r, again.beta, again.iterations,
            again.converged) == (f.measure, f.r, f.beta, f.iterations,
                                 f.converged)
