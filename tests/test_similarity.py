import numpy as np
import pytest
import scipy.sparse as sp

import rolekit as rk
from rolekit.similarity import _gram_rel_change, beta_estimate
from reference import (BLOCKS5, CYCLE3, dense_oracle, gram, load_factor,
                       rng, salton_matrix, side_by_side)


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
    # one X1 path: the default and an explicit beta both take their first
    # iterate from initial_factor, resolved at call time
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
    assert calls == [3, 3]


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


def _count_eigsh(monkeypatch, calls):
    # records (k, tol) of every ARPACK call; eigsh defaults to tol=0
    import scipy.sparse.linalg as spla
    eigsh = spla.eigsh

    def counted_eigsh(m, k, **kwargs):
        calls.append((k, kwargs.get("tol", 0)))
        return eigsh(m, k, **kwargs)
    monkeypatch.setattr(spla, "eigsh", counted_eigsh)


@pytest.mark.parametrize("n", [150, 900])  # formed Gram, Gram operator
def test_default_beta_shares_one_svd_with_first_iterate(monkeypatch, n):
    # the default factor is X1, the bits of initial_factor's, from one
    # rank-r solve at the factors' tolerance; the bound is one exact solve
    # (tol=0) of r + 1 triplets, and an explicit beta needs no
    # sigma_{r+1}; salton's factor is one solve at the factors' tolerance;
    # at either size each is one eigsh
    from rolekit.cli import bench_spec
    from rolekit.similarity import _FACTOR_TOL
    g, _ = rk.generate_planted(bench_spec(n, 3, 11))
    calls = []
    _count_eigsh(monkeypatch, calls)
    f = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    assert calls == [(3, _FACTOR_TOL)]
    assert (f.beta, f.iterations, f.converged) == (0.0, 1, True)
    assert f.X.tobytes() == rk.initial_factor(g, 3).tobytes()
    calls.clear()
    beta = beta_estimate(g, 3)
    assert calls == [(4, 0)]
    calls.clear()
    given = rk.browet_factor(g, rk.SimilarityConfig(r=3, beta=beta))
    assert calls == [(3, _FACTOR_TOL)]
    assert given.beta == beta and given.converged
    calls.clear()
    rk.salton_factor(g, 3)
    assert calls == [(3, _FACTOR_TOL)]


def test_default_beta_keeps_rank_and_empty_graph_errors():
    # the rank is checked as before; the empty graph's factor is zero, and
    # only the bound, which needs a spectrum, raises on it
    with pytest.raises(ValueError, match="exceeds node count"):
        rk.browet_factor(rk.DirectedGraph.from_edges(3, [(0, 1)]),
                         rk.SimilarityConfig(r=4))
    empty = rk.DirectedGraph.from_edges(4, [])
    f = rk.browet_factor(empty, rk.SimilarityConfig(r=2))
    assert not f.X.any() and f.X.shape == (4, 2)
    assert (f.beta, f.iterations, f.converged) == (0.0, 1, True)
    with pytest.raises(rk.SpectralGapError, match="empty graph"):
        beta_estimate(empty, 2)


# ---------------------------------------------------------------------------
# the kernel: eigensolve on the Gram against a full LAPACK SVD
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
    graphs = []
    for i, p_in in enumerate(_grid_values(0.25)):
        for j, p_out in enumerate(_grid_values(0.25)):
            for t in range(2):
                spec = rk.BenchmarkSpec(
                    B=CYCLE3, sizes=[100, 100, 100], p_in=p_in, p_out=p_out,
                    seed=_derived_seed(1, i, j, t, 0))
                g, _ = rk.generate_planted(spec)
                u, s, _ = np.linalg.svd(
                    side_by_side(g.adj, g.adj_t).toarray(),
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
    from rolekit.similarity import _truncated_svd
    for _, _, g, svd in sweep_graphs:
        x, sigma = _truncated_svd(g, 4)
        _check_against_lapack(x, sigma, svd, 3)


def test_salton_dense_kernel_matches_lapack_svd_on_sweep_graphs(
        sweep_graphs):
    for _, _, g, _ in sweep_graphs[::2]:  # one realization per cell
        f = rk.salton_factor(g, 3)
        u, s, _ = np.linalg.svd(salton_matrix(g), full_matrices=False)
        _check_against_lapack(f.X, np.linalg.norm(f.X, axis=0), (u, s), 3)


def test_beta_estimate_not_above_exact_svd_bound(monkeypatch, sweep_graphs):
    # round-off in either kernel must never raise beta: the padded bound
    # stays at or below the unpadded one on LAPACK's sigma, and a gap error
    # comes only where that spectrum has no gap (the empty and the complete
    # graph); the second pass forces the sweep graphs onto the Gram
    # operator
    for limit, graphs in ((400, sweep_graphs), (0, sweep_graphs[::2])):
        monkeypatch.setattr("rolekit.similarity._DENSE_SVD_LIMIT", limit)
        for p_in, p_out, g, (_, sigma) in graphs:
            exact = _unpadded_beta(sigma, 3, g.num_edges)
            assert (exact is None) == ((p_in, p_out) in ((0.0, 0.0),
                                                         (1.0, 1.0)))
            if exact is None:
                with pytest.raises(rk.SpectralGapError):
                    beta_estimate(g, 3)
            else:
                assert beta_estimate(g, 3) <= exact


def test_kernel_is_bit_reproducible_on_repeated_singular_values():
    # noiseless cycle-3, n = 600 on the Gram operator, k = 4 > rank 3:
    # sigma_1 = sigma_2 = sigma_3 and a zero sigma_4, where ARPACK meets an
    # invariant subspace and draws a restart vector; from the fixed stream
    # every call gives the same bits
    from rolekit.similarity import _DENSE_SVD_LIMIT, _truncated_svd
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[200] * 3, p_in=1.0, p_out=0.0, seed=0))
    assert g.n > _DENSE_SVD_LIMIT
    runs = {tuple(part.tobytes() for part in _truncated_svd(g, 4))
            for _ in range(6)}
    assert len(runs) == 1


def test_default_beta_is_deterministic_on_repeated_singular_values():
    # noiseless cycle-3 with equal blocks: sigma_1 = sigma_2 = sigma_3, the
    # case where ARPACK restarts; the default factor must stay
    # reproducible, which the CLI's determinism promise relies on
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[200] * 3, p_in=1.0, p_out=0.0, seed=0))
    first = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    again = rk.browet_factor(g, rk.SimilarityConfig(r=3))
    assert first.beta == again.beta
    assert first.X.tobytes() == again.X.tobytes()


@pytest.mark.parametrize("block", [10, 100])
def test_complete_graph_has_no_gap_and_no_nan(tmp_path, block):
    # rank 1: the Gram's zero eigenvalues come back as round-off of either
    # sign (negative at block 10, positive at block 100). Only the bound
    # needs a gap: extract on the complete and on the empty graph writes a
    # partition and a finite report, and exits 2 (validation fails)
    import json
    from rolekit.cli import EXIT_VALIDATION_FAILED, main
    from rolekit.similarity import _truncated_svd
    n = 3 * block
    g, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[block] * 3, p_in=1.0, p_out=1.0, seed=0))
    x, sigma = _truncated_svd(g, 4)
    assert np.isfinite(sigma).all() and np.isfinite(x).all()
    assert sigma[0] ** 2 == pytest.approx(2 * n ** 2, rel=1e-12)
    empty = rk.DirectedGraph.from_edges(n, [])
    with pytest.raises(rk.SpectralGapError, match="no rank-3 gap"):
        beta_estimate(g, 3)
    with pytest.raises(rk.SpectralGapError, match="empty graph"):
        beta_estimate(empty, 3)
    for name, graph in (("complete", g), ("empty", empty)):
        path = tmp_path / f"{name}.edges.txt"
        with open(path, "w") as fh:
            rk.save_edge_list(graph, fh)
        out = tmp_path / name
        assert main(["extract", str(path), "-r", "3", "--k", "3",
                     "--save-factor", "--out-prefix", str(out)]) \
            == EXIT_VALIDATION_FAILED
        with open(f"{out}.partition.csv") as fh:
            assert len(rk.load_partition(fh)) == n
        report = json.loads((tmp_path / f"{name}.validation.json").read_text())
        assert report["passed"] is False
        assert (report["beta"], report["iterations"]) == (0.0, 1)
        assert np.isfinite([value for value in report.values()
                            if isinstance(value, float)]).all()
        factor = np.loadtxt(f"{out}.factor.csv", delimiter=",")
        assert factor.shape == (n, 3) and np.isfinite(factor).all()


@pytest.mark.parametrize("b, sizes, shown", [
    ([[1]], [300], "0 and 0"),       # complete graph, dense Gram eigensolve
    ([[1]], [500], "0 and 0"),       # ARPACK on the Gram operator
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
    # n = 402 > 400 but want >= n // 2, so no ARPACK call
    import scipy.sparse.linalg as spla
    from rolekit.cli import bench_spec
    from rolekit.similarity import _DENSE_SVD_LIMIT, _truncated_svd
    g, _ = rk.generate_planted(bench_spec(402, 3, 5))
    assert g.n > _DENSE_SVD_LIMIT

    def no_eigsh(*args, **kwargs):
        raise AssertionError("ARPACK called")
    monkeypatch.setattr(spla, "eigsh", no_eigsh)
    x, sigma = _truncated_svd(g, g.n // 2)
    u, s, _ = np.linalg.svd(side_by_side(g.adj, g.adj_t).toarray(),
                            full_matrices=False)
    _check_against_lapack(x, sigma, (u, s), 3)


@pytest.mark.parametrize("measure", ["browet", "salton"])
def test_arpack_operator_products_of_the_halves(monkeypatch, measure):
    # the Gram operator each measure hands eigsh runs on the graph's CSR
    # arrays: its product is M (M^T y) for M = [A | A^T], or the Salton
    # index's [C | D^T] with the degree scales applied to the vectors, so it
    # differs from the explicit matrix's products only by round-off: each
    # sum of at most d terms is off by at most d * eps * the sum of their
    # magnitudes, once for either side; matmat's (n, 1) columns are taken
    # as vectors
    import scipy.sparse.linalg as spla
    from rolekit.cli import bench_spec
    g, _ = rk.generate_planted(bench_spec(900, 3, 11))
    ops, eigsh = [], spla.eigsh

    def eigsh_spy(op, k, **kwargs):
        ops.append(op)
        return eigsh(op, k, **kwargs)
    monkeypatch.setattr(spla, "eigsh", eigsh_spy)
    if measure == "browet":
        rk.initial_factor(g, 3)
        m = side_by_side(g.adj, g.adj_t)
    else:
        rk.salton_factor(g, 3)
        m = sp.csr_matrix(salton_matrix(g))
    (op,) = ops
    gen = np.random.Generator(np.random.PCG64(7))
    y = gen.standard_normal((g.n, 4))
    assert op.shape == (g.n, g.n)
    d = np.diff(m.indptr).max()
    for got, z in ((op.matvec(y[:, 0]), m.T @ y[:, 0]),
                   (op.matmat(y), m.T @ y)):
        assert got.shape == (m @ z).shape
        assert np.all(np.abs(got - m @ z) <= 2 * d * np.finfo(float).eps
                      * (abs(m) @ abs(z)))


@pytest.mark.parametrize("k", [3, 6])
def test_arpack_gram_gives_the_triplets_of_the_sparse_matrix(k):
    # the Gram operator's eigenpairs at tol=0 are the triplets of svds
    # (tol=0) on the explicit [A | A^T] from the same start, to 1e-12
    # relative in sigma and in the Gram X X^T; two calls agree bit for bit
    import scipy.sparse.linalg as spla
    from rolekit.cli import bench_spec
    from rolekit.similarity import (_DENSE_SVD_LIMIT, _arpack_start,
                                    _truncated_svd)
    g, _ = rk.generate_planted(bench_spec(900, 3, 11))
    assert g.n > _DENSE_SVD_LIMIT
    u0, s0, _ = spla.svds(side_by_side(g.adj, g.adj_t), k=k,
                          v0=_arpack_start(g.n)[0])
    order = np.argsort(s0)[::-1]
    x0, s0 = u0[:, order] * s0[order], s0[order]
    x, sigma = _truncated_svd(g, k, tol=0)
    assert np.abs(sigma - s0).max() <= 1e-12 * s0[0]
    s_ref = x0 @ x0.T
    assert np.linalg.norm(x @ x.T - s_ref) <= 1e-12 * np.linalg.norm(s_ref)
    again = _truncated_svd(g, k, tol=0)
    assert x.tobytes() == again[0].tobytes()
    assert sigma.tobytes() == again[1].tobytes()


def test_arpack_svd_peak_memory_is_below_one_copy_of_m():
    # the operator reads the graph's two halves in place: the peak is
    # ARPACK's work space and the operator's vectors, a fixed number of
    # length-n vectors, with no term in the number of edges
    import tracemalloc
    from rolekit.cli import bench_spec
    from rolekit.similarity import _DENSE_SVD_LIMIT, _truncated_svd
    g, _ = rk.generate_planted(bench_spec(2000, 3, 1))
    assert g.n > _DENSE_SVD_LIMIT
    tracemalloc.start()
    try:
        _truncated_svd(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * g.n


def test_salton_peak_memory_has_no_per_edge_term():
    # the degree scales multiply the operator's vectors, not the graph's
    # entries: the peak is that of the unscaled kernel plus the two scales,
    # under the same bound, with no term in the number of edges
    import tracemalloc
    from rolekit.cli import bench_spec
    from rolekit.similarity import _DENSE_SVD_LIMIT
    g, _ = rk.generate_planted(bench_spec(2000, 3, 1))
    assert g.n > _DENSE_SVD_LIMIT
    tracemalloc.start()
    try:
        rk.salton_factor(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * g.n


@pytest.mark.parametrize("r", [3, 6])
@pytest.mark.parametrize("measure", ["browet", "salton"])
def test_threaded_gram_product_gives_the_serial_bits(monkeypatch, measure,
                                                     r):
    # above _THREADED_EDGES, where two CPUs are usable, the Gram
    # operator's second chain runs on a worker thread; the operands and the
    # order of the sum are those of the serial product, so x and sigma are
    # the same bits, and the worker is gone when the call returns
    import os
    import threading
    from rolekit import similarity
    from rolekit.cli import bench_spec
    from rolekit.graph import _THREADED_EDGES
    g, _ = rk.generate_planted(bench_spec(4000, 3, 2))
    assert g.num_edges >= _THREADED_EDGES
    kernel, runs, pools = similarity._truncated_svd, [], []

    def kernel_spy(*args, **kwargs):
        runs.append(kernel(*args, **kwargs))
        return runs[-1]

    class PoolSpy(similarity.ThreadPoolExecutor):
        def __init__(self, *args):
            pools.append(self)
            super().__init__(*args)
    monkeypatch.setattr(similarity, "_truncated_svd", kernel_spy)
    monkeypatch.setattr(similarity, "ThreadPoolExecutor", PoolSpy)
    factor = rk.initial_factor if measure == "browet" else rk.salton_factor
    threads = threading.active_count()
    for cpus in ({0, 1}, {0}):
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid, cpus=cpus: cpus)
        factor(g, r)
        assert threading.active_count() == threads
    assert len(pools) == 1
    (x_threaded, s_threaded), (x_serial, s_serial) = runs
    assert x_threaded.tobytes() == x_serial.tobytes()
    assert s_threaded.tobytes() == s_serial.tobytes()


@pytest.mark.parametrize("measure", ["browet", "salton"])
def test_threaded_gram_peak_memory_is_below_one_copy_of_m(monkeypatch,
                                                          measure):
    # tracemalloc traces both threads: the worker's chain adds a few
    # length-n vectors to the serial kernel's peak, still with no term in
    # the number of edges
    import os
    import tracemalloc
    from rolekit.cli import bench_spec
    from rolekit.graph import _THREADED_EDGES
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    g, _ = rk.generate_planted(bench_spec(4000, 3, 1))
    assert g.num_edges >= _THREADED_EDGES
    factor = rk.initial_factor if measure == "browet" else rk.salton_factor
    tracemalloc.start()
    try:
        factor(g, 3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 8 * g.n


@pytest.mark.parametrize("seed", range(6))
def test_side_by_side_matches_hstack(seed):
    # the dense path reads [A | A^T], or [U A | V A^T] for random
    # non-negative scales (zeros too), as the bits of hstack's
    # concatenation, empty rows too: its triplets are those of the same
    # eigensolve (eigsh from the fixed start at the factors' tolerance, or
    # eigh at k >= n / 2) on the explicit matrix's Gram, bit for bit
    import scipy.linalg
    import scipy.sparse.linalg as spla
    from rolekit.similarity import _FACTOR_TOL, _arpack_start, _truncated_svd
    gen = rng(seed)
    n = int(gen.integers(1, 50))
    dense = gen.random((n, n)) < gen.uniform(0.0, 0.3)
    dense[gen.random(n) < 0.3] = False
    dense[0, 0] = True  # one edge at least: no early return
    g = rk.DirectedGraph.from_edges(n, np.argwhere(dense))
    u, v = (gen.random(n) * (gen.random(n) >= 0.2) for _ in range(2))
    k = int(gen.integers(1, n + 2))
    want = min(k, n)
    for scales, left, right in (
            (None, g.adj, g.adj_t),
            ((u, v), sp.diags(u) @ g.adj, sp.diags(v) @ g.adj_t)):
        x, sigma = _truncated_svd(g, k, scales)
        a = side_by_side(left, right).toarray()
        if want < n // 2:
            start, restarts = _arpack_start(n)
            lam, vecs = spla.eigsh(a @ a.T, want, v0=start,
                                   tol=_FACTOR_TOL, rng=restarts)
        else:
            lam, vecs = scipy.linalg.eigh(a @ a.T,
                                          subset_by_index=[n - want, n - 1])
        s = np.sqrt(np.maximum(lam[::-1], 0.0))
        assert sigma.tobytes() == np.append(s, np.zeros(k - want)).tobytes()
        assert x[:, :want].tobytes() == (vecs[:, ::-1] * s).tobytes()
        assert not x[:, want:].any()


# ---------------------------------------------------------------------------
# the factors' tolerance against the exact solve
# ---------------------------------------------------------------------------

def _exact_factors(monkeypatch):
    # the factors solve at tol=0, as beta_estimate does: the oracle for the
    # factors' looser tolerance
    from functools import partial
    from rolekit import similarity
    monkeypatch.setattr(similarity, "_truncated_svd",
                        partial(similarity._truncated_svd, tol=0))


def _corpus_graph(kind, seed):
    # bench_spec graphs on the Gram operator, or an n=300 sweep realization
    # on the formed Gram
    from rolekit.cli import bench_spec
    spec = (rk.BenchmarkSpec(B=CYCLE3, sizes=[100] * 3, p_in=0.75,
                             p_out=0.25, seed=seed)
            if kind == "sweep" else bench_spec(kind, 3, seed))
    return rk.generate_planted(spec)[0]


def _roles_by_mode(x, r):
    # the k estimate and the partition's bytes of every k-mode, from the
    # streams extract draws at seed 0
    from rolekit.cli import _rng, _roles
    out = []
    for k_mode, k in (("kmoving", None), ("hierarchical", None),
                      ("svd", None), ("fixed", 3)):
        est_rng, cluster_rng = _rng(0).spawn(2)
        estimate, model, _ = _roles(x, r, k_mode, k, cluster_rng, est_rng)
        out.append((None if estimate is None else estimate.k,
                    None if model is None else model.labels.labels.tobytes()))
    return out


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("kind", [900, 2000, "sweep"])
@pytest.mark.parametrize("measure", ["browet", "salton"])
def test_factor_tolerance_keeps_k_estimates_and_partitions(
        monkeypatch, measure, kind, seed):
    # at r = 2k the factor's noise columns move with the tolerance, yet
    # every k-mode estimates the same k and writes the same partition as
    # from the exact solve
    from rolekit.cli import compute_factor
    g = _corpus_graph(kind, seed)
    cfg = rk.SimilarityConfig(r=6)
    loose = compute_factor(g, measure, cfg).X
    with monkeypatch.context() as m:
        _exact_factors(m)
        exact = compute_factor(g, measure, cfg).X
    assert _gram_rel_change(exact, loose) <= 1e-4
    assert _roles_by_mode(loose, 6) == _roles_by_mode(exact, 6)


@pytest.mark.parametrize("measure", ["browet", "salton"])
def test_factor_tolerance_is_bit_reproducible(measure):
    # two factors at the default tolerance give the same bits, on the Gram
    # operator and on a rank-deficient graph, where ARPACK draws restart
    # vectors (noiseless cycle-3: rank 3, r = 6); the over-rank factor's
    # bits are not those of the exact solve
    from rolekit.cli import compute_factor
    from rolekit.similarity import _DENSE_SVD_LIMIT, _truncated_svd
    g = _corpus_graph(2000, 1)
    assert (_truncated_svd(g, 6)[0].tobytes()
            != _truncated_svd(g, 6, tol=0)[0].tobytes())
    rank3, _ = rk.generate_planted(rk.BenchmarkSpec(
        B=CYCLE3, sizes=[200] * 3, p_in=1.0, p_out=0.0, seed=0))
    cfg = rk.SimilarityConfig(r=6)
    for g in (g, rank3):
        assert g.n > _DENSE_SVD_LIMIT
        first = compute_factor(g, measure, cfg).X
        assert first.tobytes() == compute_factor(g, measure, cfg).X.tobytes()


@pytest.mark.parametrize("r", [3, 6])
def test_explicit_beta_converges_from_the_looser_first_iterate(monkeypatch,
                                                                r):
    # beta at the convergence bound, from beta_estimate's exact solve:
    # iterating from the looser X1 takes as many iterations as from the
    # exact X1, converges, and lands within 1e-5 of its Gram
    g = _corpus_graph(2000, 1)
    cfg = rk.SimilarityConfig(r=r, beta=beta_estimate(g, r))
    loose = rk.browet_factor(g, cfg)
    with monkeypatch.context() as m:
        _exact_factors(m)
        exact = rk.browet_factor(g, cfg)
    assert loose.converged and exact.converged
    assert loose.iterations == exact.iterations
    assert _gram_rel_change(exact.X, loose.X) <= 1e-5


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
