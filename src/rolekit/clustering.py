"""k-means++ clustering of factor rows with angle-based validation.

Rows of a similarity factor belonging to one role are near-collinear and
rows of different roles point away from each other, so a clustering is
accepted only when every member stays close to its centroid (inner product
>= 0.9 after unit normalization) and distinct centroids stay apart
(inner product <= 0.7). Restarts with fresh k-means++ seeds run until a
clustering passes or the restart budget is exhausted. Before any restart,
``within_bound`` can prove by angles alone that no clustering of the rows
into k clusters passes the within check.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import RolePartition

__all__ = [
    "ClusterModel",
    "ClusterValidation",
    "DegenerateDataError",
    "EstimateConfig",
    "WITHIN_THRESHOLD",
    "BETWEEN_THRESHOLD",
    "normalize_rows",
    "kmeans_pp_init",
    "kmeans",
    "validate",
    "within_bound",
    "cluster_validated",
]

WITHIN_THRESHOLD = 0.9
BETWEEN_THRESHOLD = 0.7
# Every passing validated clustering measured (the acceptance setups,
# README's sweep specs, the benchmark workloads) passed at its first
# restart, so the budget only sets how many failing restarts a clustering
# that cannot pass spends before it reports the best of them.
DEFAULT_MAX_RESTARTS = 7
DEFAULT_MAX_ITER = 300

# Magnitudes whose squares stay far from float64 under- and overflow.
_SQUARE_SAFE = (1e-150, 1e150)

# How far below 2w^2 - 1 a computed cosine must lie for ``within_bound``,
# and what it adds to the bound: the round-off of a d-term inner product of
# unit rows is about d * eps, and of ``validate``'s row dots no more, which
# this dwarfs for any d below about 10^6.
_COSINE_MARGIN = 1e-9
# Starting rows of ``within_bound``'s search, spread evenly over the rows.
_BOUND_STARTS = 4


class DegenerateDataError(ValueError):
    """Too few distinct rows to place the requested number of centroids."""


@dataclass(frozen=True)
class EstimateConfig:
    """Validation policy of every validated clustering: the within and
    between inner-product thresholds and the restart budget."""

    within_threshold: float = WITHIN_THRESHOLD
    between_threshold: float = BETWEEN_THRESHOLD
    max_restarts: int = DEFAULT_MAX_RESTARTS

    def __post_init__(self):
        for name, value in (("within_threshold", self.within_threshold),
                            ("between_threshold", self.between_threshold)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.max_restarts < 1:
            raise ValueError(
                f"max_restarts must be >= 1, got {self.max_restarts}")


@dataclass(frozen=True)
class ClusterModel:
    """A fitted k-means model; centroids are means of their members and no
    returned cluster is empty."""

    centroids: np.ndarray
    labels: RolePartition
    objective: float
    iterations: int
    restarts_used: int = 1


@dataclass(frozen=True)
class ClusterValidation:
    """Angle diagnostics of a clustering and the checks it fails."""

    min_within: float
    max_between: float
    failed: tuple[str, ...]

    @property
    def passed(self) -> bool:
        return not self.failed


def normalize_rows(x: np.ndarray) -> np.ndarray:
    """Return ``x`` with each nonzero row scaled to unit Euclidean norm;
    zero rows stay zero.

    A row whose largest magnitude lies outside ``_SQUARE_SAFE`` is divided
    by that magnitude first, since its squares would under- or overflow;
    every other row is divided by 1, which leaves its bits unchanged.
    """
    x = np.asarray(x, dtype=float)
    peak = np.abs(x).max(axis=1, initial=0.0)
    lo, hi = _SQUARE_SAFE
    rescale = (peak > 0) & ((peak < lo) | (peak > hi)) & np.isfinite(peak)
    x = x / np.where(rescale, peak, 1.0)[:, None]
    norms = np.linalg.norm(x, axis=1)
    safe = np.where(norms > 0, norms, 1.0)
    return x / safe[:, None]


def _uniform_index(rng: np.random.Generator, n: int) -> int:
    # Uniform index through a raw uniform double; Generator.integers is
    # avoided to keep streams reproducible across numpy versions.
    return min(int(rng.random() * n), n - 1)


def kmeans_pp_init(x: np.ndarray, k: int, rng: np.random.Generator,
                   allow_duplicates: bool = False) -> np.ndarray:
    """Choose k rows of ``x`` as initial centroids by D^2 sampling.

    The first centroid is uniform; each further one is a row drawn with
    probability proportional to its squared distance to the nearest
    centroid already chosen, which never picks an exact duplicate. When
    fewer than k distinct rows exist the draw is impossible and a
    :class:`DegenerateDataError` is raised, unless ``allow_duplicates``
    lets the remaining picks fall back to uniform sampling.
    """
    x = np.asarray(x, dtype=float)
    n = x.shape[0]
    if not 1 <= k <= n:
        raise DegenerateDataError(f"need 1 <= k <= {n} rows, got k={k}")
    chosen = np.empty(k, dtype=np.int64)
    chosen[0] = _uniform_index(rng, n)
    # Buffers filled for each pick: an (n, d) one in the layout of x, which
    # x - x[i] would allocate, so the row sums are the bits of a fresh
    # temporary's, and three of length n.
    diff = np.empty_like(x)
    d2, near, cum = np.empty(n), np.empty(n), np.empty(n)

    def squared_distances(i, out):
        np.subtract(x, x[i], out=diff)
        np.square(diff, out=diff)
        return np.sum(diff, axis=1, out=out)

    squared_distances(chosen[0], d2)
    for t in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            if not allow_duplicates:
                raise DegenerateDataError(
                    f"fewer than {k} distinct rows to seed centroids")
            idx = _uniform_index(rng, n)
        else:
            u = rng.random() * total
            idx = min(int(np.searchsorted(np.cumsum(d2, out=cum), u,
                                          side="right")), n - 1)
        chosen[t] = idx
        if t < k - 1:
            np.maximum(squared_distances(idx, near), 0.0, out=near)
            np.minimum(d2, near, out=d2)
    return x[chosen].copy()


def _squared_distances(x: np.ndarray, centroids: np.ndarray,
                       x_sq: np.ndarray) -> np.ndarray:
    # (x_sq + c_sq) - 2 x.c clamped at 0, built in the product's buffer:
    # adding -(2 x.c) rounds exactly as subtracting 2 x.c. The sums are
    # formed k x n, since a (n, 1) + (k,) broadcast is slow for small k.
    d2 = x @ centroids.T
    d2 *= -2.0
    d2 += np.add.outer(np.sum(centroids ** 2, axis=1), x_sq).T
    return np.maximum(d2, 0.0, out=d2)


def _relocate_empty(labels: np.ndarray, counts: np.ndarray,
                    assigned_d2: np.ndarray) -> None:
    # An empty cluster takes over the point currently farthest from its
    # centroid (ties broken by row order), skipping points whose departure
    # would empty the donor. With k <= n a donor always exists.
    order = np.argsort(-assigned_d2, kind="stable")
    pos = 0
    for empty in np.nonzero(counts == 0)[0]:
        while pos < len(order):
            i = order[pos]
            pos += 1
            if counts[labels[i]] > 1:
                counts[labels[i]] -= 1
                labels[i] = empty
                counts[empty] = 1
                break


def kmeans(x: np.ndarray, k: int, init: np.ndarray,
           max_iter: int = DEFAULT_MAX_ITER) -> ClusterModel:
    """Lloyd iterations from the given initial centroids.

    Points go to the nearest centroid (lowest index on ties), empty
    clusters are repaired by relocation, and centroids are recomputed as
    member means until the labels are stable or ``max_iter`` is reached.
    The objective never increases across iterations.

    A centroid is its members' coordinate sums, accumulated in row order,
    divided by the member count: for ``d >= 2`` columns these are the bits
    of ``x[labels == j].mean(axis=0)``. For a single column numpy's
    ``mean`` sums pairwise instead, so raw ``d = 1`` data can differ from
    it in the last bits (labels agree); on ``normalize_rows`` output, whose
    ``d = 1`` entries are -1, 0 or 1, the sums are exact and equal.
    """
    x = np.asarray(x, dtype=float)
    init = np.asarray(init, dtype=float)
    if init.shape != (k, x.shape[1]):
        raise ValueError(f"init must have shape ({k}, {x.shape[1]})")
    if k > x.shape[0]:
        raise DegenerateDataError(f"k={k} exceeds {x.shape[0]} rows")
    x_sq = np.sum(x ** 2, axis=1)
    columns = np.ascontiguousarray(x.T)
    centroids = init.copy()
    labels = np.full(x.shape[0], -1, dtype=np.int64)
    prev_objective = np.inf
    iterations = 0
    for iterations in range(1, max_iter + 1):
        d2 = _squared_distances(x, centroids, x_sq)
        new_labels = np.argmin(d2, axis=1)
        counts = np.bincount(new_labels, minlength=k)
        if (counts == 0).any():
            _relocate_empty(new_labels, counts,
                            d2[np.arange(x.shape[0]), new_labels])
        if np.array_equal(new_labels, labels):
            # Same members: the centroids and objective would repeat.
            break
        labels = new_labels
        for c, column in enumerate(columns):
            centroids[:, c] = np.bincount(labels, weights=column, minlength=k)
        centroids /= counts[:, None]
        diffs = x - centroids.take(labels, axis=0)
        objective = float(np.einsum("ij,ij->", diffs, diffs))
        assert objective <= prev_objective + 1e-9, \
            f"objective increased: {prev_objective} -> {objective}"
        prev_objective = objective
    return ClusterModel(centroids=centroids,
                        labels=RolePartition(labels=labels, k=k),
                        objective=prev_objective, iterations=iterations)


def _max_between(cn: np.ndarray) -> float:
    # the between check: largest inner product of distinct unit centroids
    gram = cn @ cn.T
    np.fill_diagonal(gram, -np.inf)
    return float(gram.max()) if len(cn) > 1 else 0.0


def validate(model: ClusterModel, x_normalized: np.ndarray,
             within_threshold: float = WITHIN_THRESHOLD,
             between_threshold: float = BETWEEN_THRESHOLD) -> ClusterValidation:
    """Angle check of a clustering against the unit-normalized rows.

    ``min_within`` is the smallest inner product of a row with its own
    unit-normalized centroid; ``max_between`` the largest inner product
    among distinct unit-normalized centroids (0 for a single cluster). A
    check, "within" or "between", fails past its threshold or on NaN.
    """
    cn = normalize_rows(model.centroids)
    labels = model.labels.labels
    row_dots = np.einsum("ij,ij->i", x_normalized, cn[labels])
    min_within = float(row_dots.min()) if len(row_dots) else 1.0
    max_between = _max_between(cn)
    failed = tuple(name for name, ok in (
        ("within", min_within >= within_threshold),
        ("between", max_between <= between_threshold)) if not ok)
    return ClusterValidation(min_within=min_within, max_between=max_between,
                             failed=failed)


def within_bound(x_normalized: np.ndarray, k: int,
                 within_threshold: float = WITHIN_THRESHOLD) -> float | None:
    """An upper bound on ``min_within`` over every clustering of the
    unit-normalized rows into k clusters, below ``within_threshold``; None
    when this search finds no proof that the within check must fail.

    A row within arccos w of its centroid's direction lies within 2 arccos w
    of every other such row, so two rows whose cosine is below 2w^2 - 1 can
    share no passing cluster. Any k clusters of k + 1 rows that pairwise
    are that far apart put two of them together: no clustering passes, and
    that pair bounds ``min_within`` by the cosine of half the smallest
    angle among the k + 1 rows, sqrt((1 + c) / 2) for their largest cosine
    c. Cosines count as below 2w^2 - 1 only by ``_COSINE_MARGIN``, which
    the bound adds to c, so round-off cannot break the proof. A zero row
    has inner product 0 with any centroid, which bounds ``min_within`` by
    0. The proof needs w in (0, 1] and k + 1 <= n rows.

    The k + 1 rows are picked by a farthest-first traversal in angle: from
    each of a fixed handful of starting rows in turn, the first row picked
    is the one least collinear with the start, and each further row the
    one whose largest cosine with the rows picked is smallest. The first
    start that yields k + 1 rows gives the bound, in O(starts k n d).
    """
    n = x_normalized.shape[0]
    if not 0.0 < within_threshold <= 1.0 or not 1 <= k < n:
        return None
    if not x_normalized.any(axis=1).all():
        return 0.0
    ceiling = 2.0 * within_threshold ** 2 - 1.0 - _COSINE_MARGIN
    for start in sorted({n * s // _BOUND_STARTS
                         for s in range(_BOUND_STARTS)}):
        first = int(np.argmin(x_normalized @ x_normalized[start]))
        # each row's largest cosine with the rows picked so far
        nearest = x_normalized @ x_normalized[first]
        nearest[first] = np.inf
        largest = -np.inf
        for _ in range(k):
            i = int(np.argmin(nearest))
            if not nearest[i] < ceiling:
                break
            largest = max(largest, float(nearest[i]))
            np.maximum(nearest, x_normalized @ x_normalized[i], out=nearest)
            nearest[i] = np.inf
        else:
            return float(np.sqrt((1.0 + largest + _COSINE_MARGIN) / 2.0))
    return None


def cluster_validated(x: np.ndarray, k: int, rng: np.random.Generator,
                      cfg: EstimateConfig = EstimateConfig(),
                      require_between: bool = True,
                      ) -> tuple[ClusterModel, ClusterValidation]:
    """k-means restarted with fresh k-means++ seeds until validation passes.

    Returns the first passing model, or after ``cfg.max_restarts`` failures
    the best-objective model seen with ``passed=False``. Rows are clustered
    unit-normalized. ``require_between=False`` validates with no between
    bound, i.e. the co-linearity condition alone (used when over-clustering
    on purpose). Restart t draws from child 2t of
    ``rng.spawn(2 * cfg.max_restarts)``, so serial and parallel execution
    agree and a restart's stream does not depend on the budget.

    A restart whose k-means++ draw degenerates (fewer than k distinct
    rows) falls back to duplicate seeding on child 2t + 1; the resulting
    collinear centroids then fail the between-cluster check, reporting
    over-split data as a failed validation rather than an error.
    """
    between = cfg.between_threshold if require_between else np.inf
    xw = normalize_rows(x)
    streams = rng.spawn(2 * cfg.max_restarts)
    best: tuple[ClusterModel, ClusterValidation] | None = None
    for t in range(cfg.max_restarts):
        try:
            init = kmeans_pp_init(xw, k, streams[2 * t])
        except DegenerateDataError:
            if k > xw.shape[0]:
                raise
            init = kmeans_pp_init(xw, k, streams[2 * t + 1],
                                  allow_duplicates=True)
        model = replace(kmeans(xw, k, init), restarts_used=t + 1)
        val = validate(model, xw, cfg.within_threshold, between)
        if val.passed:
            return model, val
        if best is None or model.objective < best[0].objective:
            best = (model, val)
    assert best is not None
    model, val = best
    return replace(model, restarts_used=cfg.max_restarts), val
