"""Low-rank pairwise node-similarity factors for directed graphs.

Two measures are provided. The iterative measure accumulates counts of
common neighbourhood patterns of growing length, geometrically damped by a
scaling parameter ``beta``; its fixed point is approximated by a rank-r
factor X with S ~= X @ X.T, refined by a QR + truncated-SVD step per
iteration so the dense n x n similarity matrix is never formed. Its first
iterate X1 is the rank-r truncated SVD of [A | A^T]; at the default
``beta = 0`` X1 is the whole factor. The Salton index measure
degree-normalizes the adjacency first and needs a single truncated SVD, no
iteration, of [C | D^T].

The one truncated-SVD kernel takes such a concatenation as its two square
halves and never builds it; for [A | A^T] the halves are the graph's own
CSR arrays, so the iterative measure holds no second copy of the graph.

On small graphs the truncated SVD is one symmetric eigensolve on the Gram
M M^T (A A^T + A^T A for M = [A | A^T]). Its singular values are accurate
to about n * eps * sigma_1^2 in sigma^2, so a small sigma carries a larger
relative error than an SVD of M would give it; the convergence bound of
``beta_estimate`` pads its spectral gap by that amount, which keeps
round-off from raising beta.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .graph import DirectedGraph, degrees

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

# Up to this node count (or when the rank is too close to full) the
# truncated SVD is a dense eigensolve on the Gram; above it, ARPACK with a
# fixed start vector. Measured crossover, 4 triplets of [A | A^T] on
# bench_spec graphs, one BLAS thread, 2-vCPU Xeon (Gram eigh vs ARPACK):
# n=200 4.7 vs 9.7 ms, n=400 14.5 vs 15.2 ms, n=500 21.5 vs 21.4 ms,
# n=800 97 vs 26 ms.
_DENSE_SVD_LIMIT = 400


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


def _svds_start(dim: int) -> np.ndarray:
    # Fixed pseudo-random start keeps ARPACK deterministic and avoids
    # stalling when the all-ones vector is an exact eigenvector.
    rng = np.random.Generator(np.random.PCG64(0x5EED))
    return rng.random(dim) - 0.5


def _svds(left, right, k: int, transposes=None, **options):
    """``spla.svds([left | right], k)`` from the fixed start, on an operator
    over the two square CSR halves, so the concatenation is never built.

    The adjoint products run on ``transposes``, the halves' transposes in
    CSR form (for [A | A^T], A^T and A), else on the ``left.T`` and
    ``right.T`` views. With sorted indices both sum each entry's terms in
    the order of ``[left | right].T @ x``, bit for bit. Browet keeps its
    CSR halves, as ``svds(k=3)`` ran 2-8% slower on the views. A forward
    product adds the halves' two products, so it can differ from one
    product of the concatenation in its last bits."""
    n = left.shape[0]
    left_t, right_t = transposes or (left.T, right.T)

    def forward(y):
        out = left @ y[:n]
        out += right @ y[n:]
        return out

    def adjoint(x):
        return np.concatenate([left_t @ x, right_t @ x])

    op = spla.LinearOperator((n, 2 * n), matvec=forward, rmatvec=adjoint,
                             matmat=forward, rmatmat=adjoint,
                             dtype=left.dtype)
    return spla.svds(op, k=k, v0=_svds_start(n), **options)


def _dense_kernel(n: int, k: int) -> bool:
    # whether _truncated_svd takes the dense Gram eigensolve for k triplets
    # of an n x 2n matrix
    return n <= _DENSE_SVD_LIMIT or min(k, n) >= n // 2


def _truncated_svd(left: sp.csr_matrix, right: sp.csr_matrix, k: int,
                   transposes=None) -> tuple[np.ndarray, np.ndarray]:
    """Leading k singular triplets of [left | right], two square CSR
    matrices, as (U_k * sigma_k, sigma_k), descending; ``transposes`` as
    in ``_svds``.

    Both outputs are zero-padded past n; rank deficiency shows up as
    trailing (near-)zero columns and values. On the dense path U and
    sigma^2 are the leading eigenpairs of the Gram of the dense
    concatenation, so sigma^2 is accurate to about n * eps * sigma_1^2
    (``beta_estimate`` pads the gap by that); on the ARPACK path they come
    from ``svds`` on an operator over the halves.
    """
    n = left.shape[0]
    want = min(k, n)
    x, sigma = np.zeros((n, k)), np.zeros(k)
    if left.nnz + right.nnz == 0:
        return x, sigma
    if _dense_kernel(n, k):
        a = np.hstack([left.toarray(), right.toarray()])
        lam, v = scipy.linalg.eigh(a @ a.T, subset_by_index=[n - want, n - 1])
        # the zero eigenvalues of a rank-deficient Gram come back as
        # round-off of either sign
        u, s = v[:, ::-1], np.sqrt(np.maximum(lam[::-1], 0.0))
    else:
        u, s, _ = _svds(left, right, want, transposes)
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    x[:, :want] = u * s
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
    return _truncated_svd(g.adj, g.adj_t, r, (g.adj_t, g.adj))[0]


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
    # C and D^T scale the stored entries of adj and adj_t and share their
    # index arrays: k_out and k_in are the row lengths of adj and adj_t, so
    # np.repeat gives each entry its row's scale
    c = _scaled(g.adj, np.repeat(row_scale, k_out))
    d_t = _scaled(g.adj_t, np.repeat(col_scale, k_in))
    x, _ = _truncated_svd(c, d_t, r)
    return SimilarityFactor(X=x, r=r, measure="salton", beta=0.0,
                            iterations=1, converged=True)


def _scaled(m: sp.csr_matrix, scale: np.ndarray) -> sp.csr_matrix:
    # m's structure, each stored entry times its scale
    return sp.csr_matrix((m.data * scale, m.indices, m.indptr),
                         shape=m.shape)


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
    _, sigma = _truncated_svd(g.adj, g.adj_t, r + 1, (g.adj_t, g.adj))
    sigma_sq = sigma ** 2
    # n * eps * sigma_1^2: the backward-error scale of a symmetric
    # eigensolve on the n x n Gram (and above ARPACK's Ritz error at
    # tol=0); shrinking the gap by it means round-off can only lower beta
    round_off = g.n * np.finfo(float).eps * sigma_sq[0]
    gap = sigma_sq[r - 1] - sigma_sq[r] - round_off
    if gap <= 1e-12 * max(sigma_sq[0], 1.0):
        # values at or below the round-off floor are noise that changes
        # from run to run on the ARPACK path: print them as 0
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
