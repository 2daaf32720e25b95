"""Low-rank pairwise node-similarity factors for directed graphs.

Two measures are provided. The iterative measure accumulates counts of
common neighbourhood patterns of growing length, geometrically damped by a
scaling parameter ``beta``; its fixed point is approximated by a rank-r
factor X with S ~= X @ X.T, refined by a QR + truncated-SVD step per
iteration so the dense n x n similarity matrix is never formed. Its first
iterate X1 is the rank-r truncated SVD of [A | A^T]; at the default
``beta = 0`` X1 is the whole factor. The Salton index measure
degree-normalizes the adjacency first and needs a single truncated SVD, no
iteration, of [C | D^T] = [U A | V A^T], U and V diagonal.

The one truncated-SVD kernel is one seeded ARPACK eigensolve on the Gram
M M^T of either concatenation: formed densely on small graphs, above that
an operator over the graph's own CSR arrays A and A^T, with U and V
applied to its vectors, so neither measure copies the graph. The operator
sums two product chains, A (A^T y) and A^T (A y). Where
``graph._two_threads`` takes the graph's edges (from 100k up, on more than
one CPU), the second chain runs on a worker thread that lives for one
solve, so no thread outlives the call; the sum is the serial one, bit for
bit. The factors' solve stops once each Ritz pair's residual is below 1e-6
of its Ritz value (``_FACTOR_TOL``): that about halves the cost of an
over-rank factor and moved no partition on the graphs its comment names.
``beta_estimate`` solves to machine precision, where the singular values
are accurate to about n * eps * sigma_1^2 in sigma^2, so a small sigma
carries a larger relative error than an SVD of M would give it; the
convergence bound pads its spectral gap by that amount, which keeps
round-off from raising beta.
"""

from __future__ import annotations

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse.linalg as spla

from .graph import DirectedGraph, _two_threads, degrees

__all__ = [
    "SimilarityFactor",
    "SimilarityConfig",
    "SpectralGapError",
    "DivergenceError",
    "initial_factor",
    "browet_factor",
    "salton_factor",
    "beta_estimate",
    "save_factor",
]

# Up to this node count ARPACK runs on the Gram formed from the dense
# concatenation; above it, on an operator over A and A^T. Measured,
# eigsh on the formed Gram vs on the operator, one BLAS thread, 2-vCPU
# Xeon, medians of 9: the summed 24 non-empty cells of a cycle3 grid at
# step 0.25 (dense graphs) took 112 vs 188 ms at n=300, 260 vs 439 ms at
# n=450, 519 vs 739 ms at n=600 and 780 vs 992 ms at n=800; blocks5 at
# n=500, r=5, 208 vs 400 ms; the complete graph 6.4 vs 13.5 ms at n=300
# and 29 vs 48 ms at n=800. The sparse bench_spec graphs (3 triplets)
# took 4.9 vs 2.3 ms at n=300, 11.5 vs 2.9 ms at n=450 and 24 vs 2.8 ms
# at n=800.
_DENSE_SVD_LIMIT = 400

# ARPACK's tol for the factors' solve: each Ritz pair stops once its
# residual is below tol times its Ritz value. tol=0 (machine precision)
# makes an over-rank factor separate nearly equal noise eigenvalues to the
# last bit. Operator applications at tol 0 -> 1e-8 -> 1e-6, and solve time
# at tol 0 -> 1e-6 (best of 3, one BLAS thread, 2-vCPU Xeon), on the
# benchmark's graphs of seed 1:
#   kestimate_overrank, n=4000, r=6:      292 -> 182 -> 150, 174 -> 87 ms
#   the same graph, r=3:                   21 ->  21 ->  21, unchanged
#   extract_large, n=16000, r=6:          416 -> 250 -> 197, 1354 -> 636 ms
#   sweep_grid, seeds 1-2, 192 solves, r=3: 6606 -> 5454 -> 5139
# Against tol=0, on those graphs of seeds 1-8 (n=4000) and 1-3 (n=16000),
# r=3 and r=6, tol 1e-6 moved the three signal columns' Gram by at most
# 1.2e-7 (1.3e-7 at 1e-10), the whole factor's Gram by at most 9.2e-6 and
# sigma by at most 4.5e-12 * sigma_1, and every partition and k estimate
# that extract wrote on them stayed byte-identical. beta_estimate solves at
# tol=0: its sigma feed the convergence bound.
_FACTOR_TOL = 1e-6


class SpectralGapError(RuntimeError):
    """The spectrum carries no usable rank-r gap; pass an explicit beta."""


class DivergenceError(RuntimeError):
    """The similarity iteration produced non-finite values or failed to
    approach a fixed point; the message names the iteration."""

    def __init__(self, iteration: int, message: str):
        super().__init__(f"iteration {iteration}: {message}")


@dataclass(frozen=True)
class SimilarityConfig:
    """Parameters of the iterative factor computation.

    ``beta`` balances long against short neighbourhood patterns. The
    default ``beta = 0`` collapses the measure to the one-step common
    parent/child counts, whose rank-r truncation X1 is the factor;
    :func:`beta_estimate` gives a beta up to which the iteration provably
    converges.
    """

    r: int
    beta: float = 0.0
    tol: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank r must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not 0 <= self.beta < np.inf:
            raise ValueError(f"beta must be finite and >= 0, got {self.beta}")


@dataclass(frozen=True)
class SimilarityFactor:
    """Dense n x r factor X with S ~= X @ X.T.

    Columns are mutually orthogonal (U * sigma form of a truncated SVD)
    with non-increasing norms; compare Gram matrices, never X itself, as
    column signs are arbitrary.
    """

    X: np.ndarray
    r: int
    measure: str
    beta: float
    iterations: int
    converged: bool


def _arpack_start(n: int) -> tuple[np.ndarray, np.random.Generator]:
    # The fixed start vector, and the generator ARPACK draws its restart
    # vectors from when it meets an invariant subspace (a rank-deficient
    # Gram, a repeated eigenvalue): both keep the solve reproducible, and
    # the start avoids stalling when the all-ones vector is an exact
    # eigenvector.
    gen = np.random.Generator(np.random.PCG64(0x5EED))
    return gen.random(n) - 0.5, gen


def _eigsh(gram, k: int, tol: float) -> tuple[np.ndarray, np.ndarray]:
    start, gen = _arpack_start(gram.shape[0])
    return spla.eigsh(gram, k, v0=start, tol=tol, rng=gen)


def _gram_operator(g: DirectedGraph, scales,
                   pool: ThreadPoolExecutor | None = None):
    # M M^T y as the sum of its two chains, one per half of M. With a pool
    # the second chain runs on its worker while the first runs here; scipy's
    # CSR products release the GIL, so the two overlap.
    a, a_t = g.adj, g.adj_t
    if scales is None:
        def left(y):
            return a @ (a_t @ y)

        def right(y):
            return a_t @ (a @ y)
    else:
        row, col = scales

        def left(y):
            return row * (a @ (a_t @ (row * y)))

        def right(y):
            return col * (a_t @ (a @ (col * y)))

    def product(y):
        y = y.ravel()  # the default matmat passes (n, 1) columns
        if pool is None:
            return left(y) + right(y)
        right_y = pool.submit(right, y)
        return left(y) + right_y.result()
    return spla.LinearOperator((g.n, g.n), dtype=a.dtype, matvec=product)


def _truncated_svd(g: DirectedGraph, k: int, scales=None,
                   tol: float = _FACTOR_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Leading k singular triplets of [A | A^T] for the graph's adjacency
    A, or of [U A | V A^T] for ``scales = (u, v)``, the diagonals of U and
    V, as (left singular vectors * sigma_k, sigma_k), descending.

    Those vectors and sigma_k^2 are the leading eigenpairs of the Gram,
    A A^T + A^T A or U A A^T U + V A^T A V, from one ARPACK ``eigsh`` at
    ``tol`` (``_FACTOR_TOL`` unless given; 0 is machine precision) with a
    fixed start and restart stream, so repeated calls at one tol give the
    same bits. Up to ``_DENSE_SVD_LIMIT`` nodes the Gram is formed
    from the dense concatenation, its halves' rows scaled in place; above
    it ``eigsh`` runs on an operator over the graph's CSR arrays ``adj``
    and ``adj_t``, so the concatenation is never built. The operator adds
    two product chains, A (A^T y) and A^T (A y), or U A (A^T (U y)) and
    V A^T (A (V y)). Where ``graph._two_threads`` takes the graph's edges
    (at least ``_THREADED_EDGES``, on more than one CPU), the second
    chain runs on a worker thread while the first runs on the calling one:
    the worker is created for this solve and joined before it returns, so
    no thread outlives the call, and a process forked later inherits no
    pool. The sum is the serial one, same operands and order, so the
    output is the same bits either way. Where ARPACK
    cannot run (k >= n / 2) the formed Gram goes to LAPACK's ``eigh``,
    which is exact whatever ``tol``. At tol=0, either way, sigma^2 is
    accurate to about n * eps * sigma_1^2 (``beta_estimate`` pads the gap
    by that).

    Both outputs are zero-padded past n; rank deficiency shows up as
    trailing (near-)zero columns and values.
    """
    n = g.n
    want = min(k, n)
    x, sigma = np.zeros((n, k)), np.zeros(k)
    if g.num_edges == 0:
        return x, sigma
    arpack = want < n // 2
    if n <= _DENSE_SVD_LIMIT or not arpack:
        m = np.hstack([g.adj.toarray(), g.adj_t.toarray()])
        if scales is not None:
            m[:, :n] *= scales[0][:, None]
            m[:, n:] *= scales[1][:, None]
        gram = m @ m.T
        if arpack:
            lam, u = _eigsh(gram, want, tol)
        else:
            lam, u = scipy.linalg.eigh(gram, subset_by_index=[n - want, n - 1])
    elif not _two_threads(g.num_edges):
        lam, u = _eigsh(_gram_operator(g, scales), want, tol)
    else:
        # the worker lives for this one solve: no thread outlives the call,
        # and a process forked later inherits no pool
        with ThreadPoolExecutor(1) as pool:
            lam, u = _eigsh(_gram_operator(g, scales, pool), want, tol)
    order = np.argsort(lam, kind="stable")[::-1]
    # the zero eigenvalues of a rank-deficient Gram come back as round-off
    # of either sign
    s = np.sqrt(np.maximum(lam[order], 0.0))
    x[:, :want] = u[:, order] * s
    sigma[:want] = s
    return x, sigma


def _check_rank(g: DirectedGraph, r: int) -> None:
    if r < 1:
        raise ValueError("rank r must be >= 1")
    if r > g.n:
        raise ValueError(f"rank {r} exceeds node count {g.n}")


def initial_factor(g: DirectedGraph, r: int) -> np.ndarray:
    """First-iterate factor X1: rank-r truncated SVD factor of [A | A^T].

    X1 @ X1.T is the best rank-r approximation of the common parent/child
    count matrix A A^T + A^T A.
    """
    _check_rank(g, r)
    return _truncated_svd(g, r)[0]


def _gram_rel_change(x_old: np.ndarray, x_new: np.ndarray) -> float:
    # ||S_new - S_old||_F / ||S_old||_F computed entirely through r x r and
    # n x r products: ||X X^T||_F^2 = ||X^T X||_F^2 and
    # <S_new, S_old> = ||X_old^T X_new||_F^2.
    with np.errstate(over="ignore", invalid="ignore"):
        g_new = float(np.linalg.norm(x_new.T @ x_new) ** 2)
        g_old = float(np.linalg.norm(x_old.T @ x_old) ** 2)
        cross = float(np.linalg.norm(x_old.T @ x_new) ** 2)
    if not np.isfinite([g_new, g_old, cross]).all():
        return np.inf
    num = np.sqrt(max(g_new + g_old - 2.0 * cross, 0.0))
    den = np.sqrt(g_old)
    if den == 0.0:
        return 0.0 if num == 0.0 else np.inf
    return num / den


def browet_factor(g: DirectedGraph, cfg: SimilarityConfig) -> SimilarityFactor:
    """Iterative low-rank similarity factor.

    Starting from the rank-r truncation of the one-step counts, repeats

        Y_k = [X1 | beta A X_k | beta A^T X_k],   Y_k = Q_k R_k,
        X_{k+1} = Q_k U_k Omega_k   (truncated SVD of R_k, rank <= r),

    until the relative Frobenius change of X X^T drops below ``cfg.tol``
    or ``cfg.max_iter`` is hit. X1 comes from :func:`initial_factor`. At
    the default ``beta = 0`` the factor is X1 itself, after one iteration
    and converged: the limit of the measure as beta -> 0. A positive beta
    up to the bound of :func:`beta_estimate` keeps the iteration
    convergent.
    """
    beta = cfg.beta
    x1 = initial_factor(g, cfg.r)
    x = x1
    iterations = 1
    converged = True  # beta = 0: the first iterate is the fixed point
    if beta > 0:
        converged = False
        for it in range(2, cfg.max_iter + 1):
            with np.errstate(over="ignore", invalid="ignore"):
                y = np.hstack([x1, beta * (g.adj @ x), beta * (g.adj_t @ x)])
            if not np.isfinite(y).all():
                raise DivergenceError(it, "non-finite factor entries "
                                          "(beta too large?)")
            q, r_small = np.linalg.qr(y, mode="reduced")
            uu, ss, _ = np.linalg.svd(r_small, full_matrices=False)
            x_next = q @ (uu[:, :cfg.r] * ss[:cfg.r])
            if not np.isfinite(x_next).all():
                raise DivergenceError(it, "non-finite factor entries "
                                          "(beta too large?)")
            delta = _gram_rel_change(x, x_next)
            x = x_next
            iterations = it
            if delta <= cfg.tol:
                converged = True
                break
    return SimilarityFactor(X=x, r=cfg.r, measure="browet", beta=float(beta),
                            iterations=iterations, converged=converged)


def salton_factor(g: DirectedGraph, r: int) -> SimilarityFactor:
    """One-shot degree-normalized similarity factor.

    Rows of A are scaled by 1/sqrt(out-degree) and columns by
    1/sqrt(in-degree) (0/0 terms are 0), giving the fraction of shared
    children plus the fraction of shared parents; X is the rank-r
    truncated SVD factor of the concatenation [C | D^T].
    """
    _check_rank(g, r)
    k_out, k_in = degrees(g)
    with np.errstate(divide="ignore"):
        row_scale = np.where(k_out > 0, 1.0 / np.sqrt(k_out), 0.0)
        col_scale = np.where(k_in > 0, 1.0 / np.sqrt(k_in), 0.0)
    x, _ = _truncated_svd(g, r, (row_scale, col_scale))
    return SimilarityFactor(X=x, r=r, measure="salton", beta=0.0,
                            iterations=1, converged=True)


def beta_estimate(g: DirectedGraph, r: int) -> float:
    """Scaling parameter guaranteed to keep the iteration convergent.

    Evaluates the sufficient bound
    beta^2 < 1 / (F * (8 * s1 / gap + 1)) with F an upper bound on the
    Frobenius norm of the doubled Kronecker operator (2 ||A||_F^2 for
    binary A), s1 the largest squared singular value of [A | A^T], and
    gap the difference between the r-th and (r+1)-th squared singular
    values less n * eps * s1, the round-off scale of the computed values;
    returns 0.99 * sqrt(bound). sigma_1..sigma_{r+1} come from one exact
    truncated SVD of r + 1 triplets. Reading the gap off the first iterate
    is one defensible choice among several. The default factor does not
    call this (its beta is 0); pass the result as an explicit beta to
    iterate at the bound. Raises SpectralGapError on an empty graph or
    when the spectrum leaves no rank-r gap.
    """
    _check_rank(g, r)
    if g.num_edges == 0:
        raise SpectralGapError("empty graph has no spectrum")
    _, sigma = _truncated_svd(g, r + 1, tol=0)
    sigma_sq = sigma ** 2
    # n * eps * sigma_1^2: the backward-error scale of a symmetric
    # eigensolve on the n x n Gram (and above ARPACK's Ritz error at
    # tol=0); shrinking the gap by it means round-off can only lower beta
    round_off = g.n * np.finfo(float).eps * sigma_sq[0]
    gap = sigma_sq[r - 1] - sigma_sq[r] - round_off
    if gap <= 1e-12 * max(sigma_sq[0], 1.0):
        # values at or below the round-off floor are noise that depends
        # on the solver's path: print them as 0
        shown = np.where(sigma_sq <= round_off, 0.0, sigma_sq)
        raise SpectralGapError(
            f"squared singular values {shown[r - 1]:.6g} and "
            f"{shown[r]:.6g} leave no rank-{r} gap; pass an explicit beta")
    bound_sq = 1.0 / (2.0 * g.num_edges * (8.0 * sigma_sq[0] / gap + 1.0))
    return 0.99 * float(np.sqrt(bound_sq))


# ---------------------------------------------------------------------------
# Factor export
# ---------------------------------------------------------------------------

def save_factor(factor: SimilarityFactor, csv_path, sidecar_path) -> None:
    """Write X as CSV plus a JSON sidecar with the run metadata."""
    np.savetxt(csv_path, factor.X, delimiter=",", fmt="%.17g")
    meta = {"measure": factor.measure, "r": factor.r, "beta": factor.beta,
            "iterations": factor.iterations, "converged": factor.converged}
    with open(sidecar_path, "w") as fh:
        json.dump(meta, fh, indent=2)
