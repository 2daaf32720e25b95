"""Estimating the number of roles from a rank-r factor.

Three strategies: a downward scan of candidate counts accepting the first
validated clustering, which clusters no count that an angle bound
(``clustering.within_bound``) proves cannot pass (k-moving), agglomerative
merging of over-clustered sub-cluster centroids until no pair stays
collinear (hierarchical), and reading the count off a gap in the singular
values of the factor (svd).
Each returns a count only; the roles themselves come from one validated
clustering at that count, drawn by the caller on its own stream.
k = 0 signals that no acceptable classification exists.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .clustering import (DegenerateDataError, EstimateConfig, _max_between,
                         cluster_validated, normalize_rows, within_bound)

__all__ = [
    "KEstimateResult",
    "DEFAULT_GAP_FACTOR",
    "k_moving",
    "hierarchical_estimate",
    "svd_estimate",
]

DEFAULT_GAP_FACTOR = 3.0


def _check_svd_options(r: int | None, gap_factor: float) -> None:
    """The svd estimator's rules: a finite gap factor and, when a rank is
    given, r >= 2. Callers check them before doing any work."""
    if not math.isfinite(gap_factor):
        raise ValueError(f"gap_factor must be finite, got {gap_factor}")
    if r is not None and r < 2:
        raise ValueError("r must be >= 2")


@dataclass(frozen=True)
class KEstimateResult:
    """Estimated role count with per-step diagnostics."""

    k: int
    method: str
    trace: dict


def k_moving(x: np.ndarray, r: int, rng: np.random.Generator,
             cfg: EstimateConfig = EstimateConfig()) -> KEstimateResult:
    """Try k = r, r-1, ..., 1 and accept the first validated clustering.

    Over-estimated k splits a role across clusters, leaving collinear
    centroids that fail the between-cluster condition, so the scan walks
    down until the conditions hold; k = 0 means none did.

    Candidate k draws its restarts from child r - k of ``rng.spawn(r)``.
    A candidate that ``within_bound`` proves unable to pass the within
    check is recorded as ``{"k", "passed": False, "min_within_bound"}``
    without clustering, and draws nothing; every other step records its
    clustering's ``min_within``, ``max_between`` and ``failed`` checks, or
    only ``k`` and ``passed`` when ``x`` has fewer rows than k (fewer
    distinct rows fall back to duplicate seeding and are clustered). So
    the estimate, and every clustering run, is the one the scan would give
    without the proof.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    steps = []
    xn = normalize_rows(x)
    streams = rng.spawn(r)
    for stream, k in zip(streams, range(r, 0, -1)):
        bound = within_bound(xn, k, cfg.within_threshold)
        if bound is not None:
            steps.append({"k": k, "passed": False, "min_within_bound": bound})
            continue
        try:
            _, val = cluster_validated(x, k, stream, cfg)
        except DegenerateDataError:
            steps.append({"k": k, "passed": False})
            continue
        steps.append({"k": k, "passed": bool(val.passed),
                      "min_within": val.min_within,
                      "max_between": val.max_between,
                      "failed": list(val.failed)})
        if val.passed:
            return KEstimateResult(k=k, method="k_moving",
                                   trace={"steps": steps})
    return KEstimateResult(k=0, method="k_moving", trace={"steps": steps})


def hierarchical_estimate(x: np.ndarray, r: int, rng: np.random.Generator,
                          cfg: EstimateConfig = EstimateConfig(),
                          ) -> KEstimateResult:
    """Over-cluster to r sub-clusters and merge collinear centroids.

    The preliminary k-means, on the first child stream of ``rng``, asks
    only for co-linearity within sub-clusters. While some pair of
    unit-normalized centroids has inner product above the between
    threshold, the pair of centroids at minimum squared distance is merged
    (size-weighted mean); the surviving group count is k. The partition at
    that k is the caller's validated clustering, not part of the estimate.
    As in any centroid linkage, a merged centroid can lie closer to a third
    one than the merged pair did, so the recorded merge distances need not
    increase.
    """
    if r < 1:
        raise ValueError("r must be >= 1")
    model, _ = cluster_validated(x, r, rng.spawn(1)[0], cfg,
                                 require_between=False)
    centroids = model.centroids.copy()
    sizes = model.labels.cluster_sizes().astype(float)
    merges = []
    while centroids.shape[0] > 1:
        if _max_between(normalize_rows(centroids)) <= cfg.between_threshold:
            break
        diffs = centroids[:, None, :] - centroids[None, :, :]
        d2 = np.einsum("abk,abk->ab", diffs, diffs)
        np.fill_diagonal(d2, np.inf)
        # d2 is exactly symmetric, so the first minimum has a < b
        a, b = map(int, np.unravel_index(np.argmin(d2), d2.shape))
        merges.append({"pair": [a, b], "distance": float(d2[a, b])})
        merged = (sizes[a] * centroids[a] + sizes[b] * centroids[b]) \
            / (sizes[a] + sizes[b])
        centroids[a] = merged
        sizes[a] += sizes[b]
        centroids = np.delete(centroids, b, axis=0)
        sizes = np.delete(sizes, b)
    return KEstimateResult(k=centroids.shape[0], method="hierarchical",
                           trace={"initial_subclusters": r, "merges": merges})


def svd_estimate(x: np.ndarray, r: int,
                 gap_factor: float = DEFAULT_GAP_FACTOR) -> KEstimateResult:
    """Read the cluster count off the singular-value profile of the factor.

    q is the position of the decisive drop: among all q with
    sigma_q / sigma_{q+1} >= gap_factor, the one with the largest ratio
    (largest q on ties). Singular values below the numerical noise floor
    count as zero, so a drop to the noise floor qualifies while ratios of
    round-off artifacts do not. A zero factor carries no gap (k = 0); a
    profile that is flat at a nonzero level means every retained direction
    is equally strong, i.e. the factor is saturated, and reads as q = r.
    k = 0 when the profile carries no decisive drop.
    """
    _check_svd_options(r, gap_factor)
    x = np.asarray(x, dtype=float)
    sigma_raw = np.linalg.svd(x, compute_uv=False)
    sigma = np.zeros(r)
    sigma[:min(r, len(sigma_raw))] = sigma_raw[:r]
    trace = {"sigma": sigma.tolist(), "gap_factor": gap_factor, "q": 0}
    if sigma[0] <= 0.0:
        return KEstimateResult(k=0, method="svd", trace=trace)
    if sigma[0] - sigma[-1] <= max(1e-12, 1e-9 * sigma[0]):
        trace["q"] = r
        return KEstimateResult(k=r, method="svd", trace=trace)
    floor = sigma[0] * max(x.shape) * np.finfo(float).eps
    sig = np.where(sigma > floor, sigma, 0.0)
    ratios = np.full(r - 1, -np.inf)
    for q in range(1, r):
        hi, lo = sig[q - 1], sig[q]
        if hi == 0.0:
            continue
        ratios[q - 1] = np.inf if lo == 0.0 else hi / lo
    qualifying = np.nonzero(ratios >= gap_factor)[0]
    if qualifying.size == 0:
        return KEstimateResult(k=0, method="svd", trace=trace)
    best = ratios[qualifying].max()
    q = int(np.nonzero(ratios == best)[0][-1]) + 1
    trace["q"] = q
    return KEstimateResult(k=q, method="svd", trace=trace)
