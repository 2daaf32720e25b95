"""Low-rank pairwise node-similarity factors for directed graphs.

Two measures are provided. The iterative measure accumulates counts of
common neighbourhood patterns of growing length, geometrically damped by a
scaling parameter ``beta``; its fixed point is approximated by a rank-r
factor X with S ~= X @ X.T, refined by a QR + truncated-SVD step per
iteration so the dense n x n similarity matrix is never formed. One
truncated SVD of [A | A^T] gives both the first iterate X1 and, when
``beta`` is not given, the singular values its convergence bound needs.
The Salton index measure degree-normalizes the adjacency first and needs
a single truncated SVD, no iteration.

On small graphs the truncated SVD is one symmetric eigensolve on the Gram
M M^T (A A^T + A^T A for M = [A | A^T]). Its singular values are accurate
to about n * eps * sigma_1^2 in sigma^2, so a small sigma carries a larger
relative error than an SVD of M would give it; the convergence bound pads
its spectral gap by that amount, which keeps round-off from raising beta.
The bound reads sigma_1, sigma_r and sigma_{r+1}; on this path all three
come from the one eigensolve.

On large graphs (the ARPACK path) sigma_{r+1} sits at the edge of the
noise bulk, where ARPACK converges slowly, so the bound uses an upper
bound on it instead. A loose rank-r solve gives an orthonormal U; by the
min-max principle sigma_{r+1}^2 <= lambda_max(P M M^T P) with
P = I - U U^T. A Lanczos run on that deflated Gram, from a fixed PCG64
Gaussian start with U projected out, gives a Ritz value
theta <= lambda_max; each step subtracts the three-term recurrence, then
makes one full reorthogonalization pass against U and the basis.
Kuczynski & Wozniakowski (1992, SIAM J. Matrix Anal. Appl. 13(4)) show
that from a start uniform on the sphere of the d = n - r dimensional
deflated space, theta < (1 - eps) lambda_max has probability at most
1.648 sqrt(d) exp(-sqrt(eps) (2m - 1)) after m steps. The run has two
checkpoints, eps = 0.25 and eps = 0.05, each with m chosen to make that
at most delta / 2 (delta = 1e-12: 35 and 76 steps at n = 16000); by the
union bound the two together fail for at most a delta share of starts,
so theta / (1 - eps) at either checkpoint is the bound. The run stops at
the first checkpoint when the beta of its bound is within 3% of the beta
of the uninflated theta, since no later bound lies below theta; otherwise
it runs on to the second. At n = 16000 it stops at the first, and beta is
2.1% lower than the second checkpoint alone would give. The start is
fixed, so the result is deterministic; for any one graph, delta bounds
the share of start directions for which the bound would fail. A larger
sigma_{r+1} only narrows the gap and lowers beta, so the bounded beta is
at most the one the exact sigma_{r+1} gives. The bound is used only when
it leaves a gap below the loose solve's Ritz values, which lie below the
exact ones; then one exact rank-r SVD gives X1 and sigma_1..sigma_r.
Otherwise (the r-th and (r+1)-th values are too close, as at a rank above
the role count) one exact SVD of r+1 triplets gives sigma_{r+1} too.
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

# The sigma_{r+1} certificate of the module docstring: the bound taken at
# either of its two checkpoints is at most 1 / (1 - eps) times too large,
# and the two together fail to bound for at most a _CERT_DELTA share of
# start vectors. The first checkpoint ends the run when the beta of its
# bound is at least _CERT_STOP times the beta of the uninflated Ritz value.
_CERT_EPS = (0.25, 0.05)
_CERT_DELTA = 1e-12
_CERT_STOP = 0.97


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

    ``beta`` balances long against short neighbourhood patterns; when None
    it is resolved through :func:`beta_estimate` (there is no silent
    numeric default). ``beta = 0`` collapses the measure to the one-step
    common parent/child counts.
    """

    r: int
    beta: float | None = None
    tol: float = 1e-6
    max_iter: int = 100

    def __post_init__(self):
        if self.r < 1:
            raise ValueError("rank r must be >= 1")
        if not 0 < self.tol < np.inf:
            raise ValueError(f"tol must be finite and positive, got {self.tol}")
        if self.max_iter < 1:
            raise ValueError(f"max_iter must be >= 1, got {self.max_iter}")
        if not (self.beta is None or 0 <= self.beta < np.inf):
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


def _dense_kernel(m, k: int) -> bool:
    # whether _truncated_svd(m, k) takes the dense Gram eigensolve
    k_max = min(m.shape)
    return m.shape[0] <= _DENSE_SVD_LIMIT or min(k, k_max) >= k_max // 2


def _truncated_svd(m, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Leading k singular triplets of a sparse matrix as (U_k * sigma_k,
    sigma_k), descending.

    Both outputs are zero-padded past min(m.shape); rank deficiency shows
    up as trailing (near-)zero columns and values. On the dense path U and
    sigma^2 are the leading eigenpairs of m @ m.T, so sigma^2 is accurate
    to about n * eps * sigma_1^2 (``_beta_bound`` pads the gap by that);
    on the ARPACK path they come from ``svds``.
    """
    n, c = m.shape
    k_max = min(n, c)
    want = min(k, k_max)
    x, sigma = np.zeros((n, k)), np.zeros(k)
    if m.nnz == 0:
        return x, sigma
    if _dense_kernel(m, k):
        a = m.toarray()
        lam, v = scipy.linalg.eigh(a @ a.T, subset_by_index=[n - want, n - 1])
        # the zero eigenvalues of a rank-deficient Gram come back as
        # round-off of either sign
        u, s = v[:, ::-1], np.sqrt(np.maximum(lam[::-1], 0.0))
    else:
        u, s, _ = spla.svds(m, k=want, v0=_svds_start(k_max))
        order = np.argsort(s)[::-1]
        u, s = u[:, order], s[order]
    x[:, :want] = u * s
    sigma[:want] = s
    return x, sigma


def _concat_adj(g: DirectedGraph) -> sp.csr_matrix:
    return sp.hstack([g.adj, g.adj_t], format="csr")


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
    return _truncated_svd(_concat_adj(g), r)[0]


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
    or ``cfg.max_iter`` is hit. ``beta`` comes from the config or, when
    absent, from the bound of :func:`beta_estimate`, whose truncated SVD of
    [A | A^T] also yields X1; an explicit beta takes X1 from initial_factor.
    """
    _check_rank(g, cfg.r)
    beta = cfg.beta
    if beta is None:
        x1, beta = _default_beta(g, cfg.r)
    else:
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
    # scale copies of the stored entries: k_out and k_in are the row lengths
    # of adj and adj_t, so np.repeat gives each entry its row's scale
    c = g.adj.copy()
    c.data *= np.repeat(row_scale, k_out)
    d_t = g.adj_t.copy()
    d_t.data *= np.repeat(col_scale, k_in)
    m = sp.hstack([c, d_t], format="csr")
    x, _ = _truncated_svd(m, r)
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
    returns 0.99 * sqrt(bound). Reading the gap off the first
    iterate is one defensible choice among several; pass an explicit beta
    to override it.

    On the ARPACK path the (r+1)-th squared singular value is replaced by
    a Lanczos upper bound whenever that bound still leaves a gap; the
    result is then at most the bound on the exact value. The bound comes
    from the first of two checkpoints (module docstring: 1 / (1 - 0.25)
    times too large at most, 35 steps at n = 16000) when that costs beta
    under 3%, else from the second (1 / (1 - 0.05), 76 steps); the two
    fail for at most a 1e-12 share of start vectors, and the start is
    fixed. At n = 16000 beta is 2.5% below the exact value's. Otherwise,
    and on the dense path, the exact value is used.
    """
    _check_rank(g, r)
    return _default_beta(g, r)[1]


def _default_beta(g: DirectedGraph, r: int) -> tuple[np.ndarray, float]:
    # X1 and beta_estimate's beta, from exactly one tol=0 truncated SVD
    m = _concat_adj(g)
    if g.num_edges and not _dense_kernel(m, r + 1):
        next_sq = _next_sigma_sq_bound(g, m, r)
        if next_sq is not None:
            x1, sigma = _truncated_svd(m, r)
            return x1, _beta_bound(np.append(sigma, np.sqrt(next_sq)), r, g)
    x1, sigma = _truncated_svd(m, r + 1)
    return x1[:, :r], _beta_bound(sigma, r, g)


def _next_sigma_sq_bound(g: DirectedGraph, m, r: int) -> float | None:
    """Certified upper bound on sigma_{r+1}^2 of m = [A | A^T], or None
    when it cannot leave ``_beta_bound`` a gap (module docstring)."""
    # a small Krylov space (ncv = 2r + 1, not svds' default of 20): any
    # orthonormal U keeps the bound valid, a rougher one only loosens it
    try:
        u, s, _ = spla.svds(m, k=r, ncv=2 * r + 1, tol=0.1,
                            v0=_svds_start(min(m.shape)))
    except spla.ArpackNoConvergence:
        return None
    # loose Ritz values lie below the exact ones (interlacing), so a bound
    # that leaves a gap below them leaves one on the exact sigma_1..r too
    s_sq = np.sort(s ** 2)[::-1]
    dim = g.n - r
    share = _CERT_DELTA / 2.0  # union bound over the two checkpoints
    steps = [min(dim, int(np.ceil(
        (np.log(1.648 * np.sqrt(dim) / share) / np.sqrt(eps) + 1.0) / 2.0)))
        for eps in _CERT_EPS]
    rng = np.random.Generator(np.random.PCG64(0x5EED))
    v = rng.standard_normal(g.n)
    v -= u @ (u.T @ v)
    v /= np.linalg.norm(v)
    basis = np.empty((steps[1], g.n))
    alpha, off = np.empty(steps[1]), np.empty(steps[1])
    for j in range(steps[1]):
        basis[j] = v
        w = g.adj @ (g.adj_t @ v) + g.adj_t @ (g.adj @ v)
        alpha[j] = v @ w
        # the three-term recurrence, then one full reorthogonalization
        # pass (against U as well) for what round-off left
        w -= alpha[j] * v
        if j:
            w -= off[j - 1] * basis[j - 1]
        w -= u @ (u.T @ w)
        w -= basis[:j + 1].T @ (basis[:j + 1] @ w)
        off[j] = np.linalg.norm(w)
        theta = scipy.linalg.eigvalsh_tridiagonal(
            alpha[:j + 1], off[:j], select="i", select_range=(j, j))[0]
        # an invariant subspace up to round-off (the deflated Gram vanishes
        # when the rank is r): theta is an eigenvalue to within off[j]
        breakdown = off[j] <= _round_off(g, s_sq[0])
        if breakdown:
            theta += off[j]
        theta = max(theta, 0.0)
        bound = theta / (1.0 - _CERT_EPS[1])
        if _gap_beta(s_sq, bound, r, g) is None:  # theta only grows with j
            return None
        if breakdown:
            break
        if j + 1 == steps[0]:
            # no later bound lies below theta, so when this bound's beta
            # is within _CERT_STOP of theta's, running on gains too little
            early = theta / (1.0 - _CERT_EPS[0])
            early_beta = _gap_beta(s_sq, early, r, g)
            if (early_beta is not None and early_beta
                    >= _CERT_STOP * _gap_beta(s_sq, theta, r, g)):
                return early
        v = w / off[j]
    return bound


def _beta_bound(sigma: np.ndarray, r: int, g: DirectedGraph) -> float:
    # The bound of beta_estimate from sigma_1..sigma_{r+1} of [A | A^T].
    if g.num_edges == 0:
        raise SpectralGapError("empty graph has no spectrum")
    sigma_sq = sigma ** 2
    beta = _gap_beta(sigma_sq, sigma_sq[r], r, g)
    if beta is None:
        # values at or below the round-off floor are noise that changes
        # from run to run on the ARPACK path: print them as 0
        shown = np.where(sigma_sq <= _round_off(g, sigma_sq[0]), 0.0, sigma_sq)
        raise SpectralGapError(
            f"squared singular values {shown[r - 1]:.6g} and "
            f"{shown[r]:.6g} leave no rank-{r} gap; pass an explicit beta")
    return beta


def _round_off(g: DirectedGraph, s1_sq: float) -> float:
    # n * eps * sigma_1^2: the backward-error scale of a symmetric
    # eigensolve on the n x n Gram (and above ARPACK's Ritz error at tol=0)
    return g.n * np.finfo(float).eps * s1_sq


def _gap_beta(sigma_sq: np.ndarray, next_sq: float, r: int,
              g: DirectedGraph) -> float | None:
    # The bound of beta_estimate from sigma_1^2..sigma_r^2 of [A | A^T] and
    # next_sq, sigma_{r+1}^2 or an upper bound on it (the Lanczos
    # certificate), which only lowers beta; None when no gap is left. The
    # gap is shrunk by the round-off floor, so round-off in either kernel
    # can only lower beta.
    gap = sigma_sq[r - 1] - next_sq - _round_off(g, sigma_sq[0])
    if gap <= 1e-12 * max(sigma_sq[0], 1.0):
        return None
    fro_bound = 2.0 * g.num_edges
    bound_sq = 1.0 / (fro_bound * (8.0 * sigma_sq[0] / gap + 1.0))
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
