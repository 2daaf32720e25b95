"""Command-line driver: graph generation, role extraction, NMI sweeps,
inner-product histograms, timing benchmarks and partition scoring.

Subcommands write RFC-4180 CSV (with headers) or JSON; every command is
deterministic given its seed inputs, timing values excepted. Exit codes:
0 success, 2 when the extraction's cluster validation failed, 1 on error.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.sparse.linalg import ArpackNoConvergence

from .clustering import (BETWEEN_THRESHOLD, DEFAULT_MAX_RESTARTS,
                         WITHIN_THRESHOLD, DegenerateDataError,
                         EstimateConfig, cluster_validated, kmeans,
                         kmeans_pp_init, normalize_rows)
from .graph import (BenchmarkSpec, DirectedGraph, RolePartition,
                    _check_seed, _check_threshold, _parse_spec,
                    extract_reduced, generate_planted, load_edge_list,
                    load_partition, save_edge_list, save_partition)
from .kestimate import (DEFAULT_GAP_FACTOR, _check_svd_options,
                        hierarchical_estimate, k_moving, svd_estimate)
from .metrics import nmi
from .similarity import (DivergenceError, SimilarityConfig, SimilarityFactor,
                         SpectralGapError, browet_factor, salton_factor,
                         save_factor)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_VALIDATION_FAILED = 2

HIST_NODE_LIMIT = 5000
HIST_BIN_WIDTH = 0.01
# edges of the 0.01-wide bins over [-1, 1]; all but the last are bin lows
_HIST_EDGES = np.round(np.arange(-1.0, 1.0 + HIST_BIN_WIDTH / 2,
                                 HIST_BIN_WIDTH), 10)

_MEASURES = ("browet", "salton")
_K_MODES = ("kmoving", "hierarchical", "svd")

# Expected in-block / out-block degrees of benchmark graphs; probabilities
# scale as 1/n so edge counts, and hence pipeline time, grow linearly.
BENCH_IN_DEGREE = 30.0
BENCH_OUT_DEGREE = 6.0


@dataclass(frozen=True)
class SweepSpec:
    """Probability-grid sweep configuration around a benchmark template."""

    B: np.ndarray
    sizes: np.ndarray
    seed: int
    r: int
    grid_step: float = 0.05
    realizations: int = 20
    measure: str = "browet"
    clusterer: str = "kmeans_validated"
    k_mode: str = "fixed"
    k: int = 0
    beta: float = 0.0
    gap_factor: float = DEFAULT_GAP_FACTOR
    within_threshold: float = WITHIN_THRESHOLD
    between_threshold: float = BETWEEN_THRESHOLD
    max_restarts: int = DEFAULT_MAX_RESTARTS

    def __post_init__(self):
        # B, sizes and seed fail as the realizations' specs would
        n = BenchmarkSpec(self.B, self.sizes, 0.0, 0.0, self.seed).n
        if not (0.0 < self.grid_step <= 0.5):
            raise ValueError("grid_step must lie in (0, 0.5]")
        if self.realizations < 1:
            raise ValueError("realizations must be >= 1")
        if self.measure not in _MEASURES:
            raise ValueError(f"unknown measure {self.measure!r}")
        if self.clusterer not in ("kmeans", "kmeans_validated"):
            raise ValueError(f"unknown clusterer {self.clusterer!r}")
        # the factor and validation settings fail here, before any cell runs
        SimilarityConfig(r=self.r, beta=self.beta)
        _check_k(self.k_mode, self.k, self.r, self.gap_factor)
        if self.r > n:
            raise ValueError(f"rank {self.r} exceeds node count {n}")
        if self.k_mode == "fixed" and self.k > n:
            raise ValueError(f"k={self.k} exceeds node count {n}")
        EstimateConfig(self.within_threshold, self.between_threshold,
                       self.max_restarts)

    @classmethod
    def from_json(cls, text: str) -> "SweepSpec":
        """Parse a JSON object holding B, sizes, seed, r and any other
        field; anything else raises ValueError naming the unknown, missing
        or malformed field."""
        return _parse_spec(cls, text)


def _derived_seed(*entropy: int) -> int:
    """Documented hash split: numpy SeedSequence over integer words."""
    return int(np.random.SeedSequence(list(entropy)).generate_state(
        1, np.uint64)[0])


def _rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def compute_factor(g: DirectedGraph, measure: str,
                   cfg: SimilarityConfig) -> SimilarityFactor:
    """Factor of ``measure``; salton reads only the rank from ``cfg``."""
    if measure == "browet":
        return browet_factor(g, cfg)
    if measure == "salton":
        return salton_factor(g, cfg.r)
    raise ValueError(f"unknown measure {measure!r}")


def _check_k(k_mode: str, k: int | None, r: int, gap_factor: float) -> None:
    """Check a known k-mode, a fixed k >= 1 and svd's rank and gap rules."""
    if k_mode not in ("fixed", *_K_MODES):
        raise ValueError(f"unknown k_mode {k_mode!r}")
    if k_mode == "fixed" and k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    _check_svd_options(r if k_mode == "svd" else None, gap_factor)


def _roles(x: np.ndarray, r: int, k_mode: str, k: int | None,
           cluster_rng: np.random.Generator, est_rng=None,
           cfg=EstimateConfig(), gap_factor=DEFAULT_GAP_FACTOR, validated=True):
    """The k estimate (None for a fixed k), the rows' model (None at an
    estimated k = 0) and its validation (None unless ``validated``)."""
    estimate = None
    if k_mode == "kmoving":
        estimate = k_moving(x, r, est_rng, cfg)
    elif k_mode == "hierarchical":
        estimate = hierarchical_estimate(x, r, est_rng, cfg)
    elif k_mode == "svd":
        estimate = svd_estimate(x, r, gap_factor)
    k = k if estimate is None else estimate.k
    if k == 0:  # no acceptable classification
        return estimate, None, None
    if validated:
        return (estimate, *cluster_validated(x, k, cluster_rng, cfg))
    xn = normalize_rows(x)
    return estimate, kmeans(xn, k, kmeans_pp_init(xn, k, cluster_rng)), None


# ---------------------------------------------------------------------------
# generate
# ---------------------------------------------------------------------------

def _outputs(out_prefix: str):
    """Create the prefix's directory; return the namer of ``<prefix><suffix>``
    outputs (every dotted part of the prefix is kept)."""
    prefix = Path(out_prefix)
    prefix.parent.mkdir(parents=True, exist_ok=True)
    return lambda suffix: prefix.with_name(prefix.name + suffix)


def cmd_generate(args: argparse.Namespace) -> int:
    spec = BenchmarkSpec.from_json(Path(args.spec).read_text())
    graph, truth = generate_planted(spec)
    output = _outputs(args.out_prefix)
    graph_path = output(".edges.txt")
    truth_path = output(".truth.csv")
    with open(graph_path, "w") as fh:
        save_edge_list(graph, fh)
    with open(truth_path, "w") as fh:
        save_partition(truth, fh)
    print(f"n={graph.n} edges={graph.num_edges} -> {graph_path}, {truth_path}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# extract
# ---------------------------------------------------------------------------

def cmd_extract(args: argparse.Namespace) -> int:
    # options are checked before the graph is read, so a bad value costs
    # no pipeline run and leaves no partial outputs
    _check_threshold(args.density_threshold)
    _check_seed(args.seed)
    k_mode = args.k_mode or "fixed"
    _check_k(k_mode, args.k, args.rank, args.gap_factor)
    factor_cfg = SimilarityConfig(r=args.rank, beta=args.beta, tol=args.tol,
                                  max_iter=args.max_iter)
    cfg = EstimateConfig(within_threshold=args.within,
                         between_threshold=args.between,
                         max_restarts=args.max_restarts)
    with open(args.graph, "rb") as fh:
        g = load_edge_list(fh, one_indexed=args.one_indexed,
                           ignore_weights=not args.keep_weights,
                           n=args.nodes)
    factor = compute_factor(g, args.measure, factor_cfg)
    output = _outputs(args.out_prefix)
    if args.save_factor:
        save_factor(factor, output(".factor.csv"), output(".factor.json"))

    est_rng, cluster_rng = _rng(args.seed).spawn(2)
    estimate, model, val = _roles(factor.X, args.rank, k_mode, args.k,
                                  cluster_rng, est_rng, cfg, args.gap_factor)
    if estimate is not None:
        output(".kestimate.json").write_text(json.dumps(
            {"method": estimate.method, "k": estimate.k,
             "trace": estimate.trace}, indent=2))
    if model is None:
        print("no acceptable classification found (k=0)", file=sys.stderr)
        return EXIT_ERROR
    k = model.labels.k
    with open(output(".partition.csv"), "w") as fh:
        save_partition(model.labels, fh)
    report = dict(min_within=val.min_within, max_between=val.max_between,
                  passed=val.passed, failed=val.failed,
                  restarts_used=model.restarts_used,
                  objective=model.objective, k=k, measure=factor.measure,
                  beta=factor.beta, iterations=factor.iterations)
    output(".validation.json").write_text(json.dumps(report, indent=2))
    reduced = extract_reduced(g, model.labels, threshold=args.density_threshold)
    output(".reduced.json").write_text(reduced.to_json())
    print(f"k={k} passed={val.passed} min_within={val.min_within:.4f} "
          f"max_between={val.max_between:.4f}")
    return EXIT_OK if val.passed else EXIT_VALIDATION_FAILED


# ---------------------------------------------------------------------------
# sweep
# ---------------------------------------------------------------------------

def _grid_values(step: float) -> list[float]:
    count = int(round(1.0 / step))
    values = [round(i * step, 10) for i in range(count + 1)]
    return [v for v in values if v <= 1.0 + 1e-12]


def _realization_nmi(spec: SweepSpec, cfg: EstimateConfig, p_in: float,
                     p_out: float, cell_seed: tuple[int, ...]) -> float:
    bench = BenchmarkSpec(B=spec.B, sizes=spec.sizes, p_in=p_in, p_out=p_out,
                          seed=_derived_seed(*cell_seed, 0))
    graph, truth = generate_planted(bench)
    factor = compute_factor(graph, spec.measure,
                            SimilarityConfig(r=spec.r, beta=spec.beta))
    rng = _rng(_derived_seed(*cell_seed, 1))
    # only an estimated k spawns: a spawn moves cluster_validated's streams
    est_rng = None if spec.k_mode == "fixed" else rng.spawn(1)[0]
    _, model, _ = _roles(factor.X, spec.r, spec.k_mode, spec.k, rng, est_rng,
                         cfg, spec.gap_factor,
                         validated=spec.clusterer == "kmeans_validated")
    if model is None:
        return float("nan")
    return nmi(truth, model.labels)


def _sweep_cell(payload: dict) -> tuple[float, float, float, float, float]:
    spec = payload["spec"]
    p_in, p_out = payload["p_in"], payload["p_out"]
    cfg = EstimateConfig(within_threshold=spec.within_threshold,
                         between_threshold=spec.between_threshold,
                         max_restarts=spec.max_restarts)
    scores, seconds = [], []
    for t in range(spec.realizations):
        start = time.perf_counter()
        try:
            scores.append(_realization_nmi(
                spec, cfg, p_in, p_out,
                (spec.seed, payload["i_in"], payload["i_out"], t)))
        except (DivergenceError, DegenerateDataError):
            # expected failures of a realization score NaN; any other
            # error is a fault and propagates
            scores.append(float("nan"))
        seconds.append(time.perf_counter() - start)
    scores_arr = np.asarray(scores)
    return (p_in, p_out, float(np.mean(scores_arr)), float(np.std(scores_arr)),
            float(np.mean(seconds)))


def run_sweep(spec: SweepSpec, workers: int = 1) -> list[tuple]:
    """Evaluate the full p_in x p_out grid; rows sorted by (p_in, p_out)."""
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    values = _grid_values(spec.grid_step)
    payloads = [{"spec": spec, "p_in": p_in, "p_out": p_out,
                 "i_in": i, "i_out": j}
                for i, p_in in enumerate(values)
                for j, p_out in enumerate(values)]
    # the pool forks all its workers at the first submit: more than one per
    # cell or per CPU this process may run on would only start idle ones
    workers = min(workers, len(payloads), len(os.sched_getaffinity(0)))
    if workers > 1:
        # imported here: multiprocessing is not loaded by a run with no pool
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(workers) as pool:
            rows = list(pool.map(_sweep_cell, payloads))
    else:
        rows = [_sweep_cell(p) for p in payloads]
    return sorted(rows, key=lambda row: (row[0], row[1]))


def cmd_sweep(args: argparse.Namespace) -> int:
    spec = SweepSpec.from_json(Path(args.spec).read_text())
    rows = run_sweep(spec, workers=args.workers)
    _write_csv(args.out, ["p_in", "p_out", "mean_nmi", "std_nmi",
                          "mean_seconds"], rows)
    return EXIT_OK


# ---------------------------------------------------------------------------
# hist
# ---------------------------------------------------------------------------

def pairwise_inner_product_histogram(x: np.ndarray,
                                     block: int = 512) -> np.ndarray:
    """Counts of unit-normalized row pair inner products in 0.01-wide bins
    over [-1, 1] (distinct pairs i < j)."""
    counts = np.zeros(len(_HIST_EDGES) - 1, dtype=np.int64)
    xn = normalize_rows(x)
    n = xn.shape[0]
    for start in range(0, n, block):
        stop = min(start + block, n)
        gram = xn[start:stop] @ xn.T
        mask = np.arange(n) > np.arange(start, stop)[:, None]
        # snap round-off so exact 0/1 products land in their own bin
        vals = np.clip(np.round(gram[mask], 9), -1.0, 1.0)
        counts += np.histogram(vals, bins=_HIST_EDGES)[0]
    return counts


def cmd_hist(args: argparse.Namespace) -> int:
    factor_cfg = SimilarityConfig(r=args.rank, beta=args.beta)
    with open(args.graph, "rb") as fh:
        g = load_edge_list(fh, one_indexed=args.one_indexed, n=args.nodes)
    if g.n > HIST_NODE_LIMIT:
        raise ValueError(f"histogram limited to n <= {HIST_NODE_LIMIT}, "
                         f"got {g.n}")
    factor = compute_factor(g, args.measure, factor_cfg)
    counts = pairwise_inner_product_histogram(factor.X)
    _write_csv(args.out, ["bin_low", "count"],
               [(f"{low:.2f}", int(c)) for low, c in zip(_HIST_EDGES, counts)])
    return EXIT_OK


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------

def bench_spec(n: int, k: int, seed: int) -> BenchmarkSpec:
    """Cyclic k-role benchmark at constant expected degree, so |E| and the
    pipeline cost grow linearly with n."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    sizes = np.full(k, n // k, dtype=np.int64)
    sizes[:n % k] += 1
    block = n / k
    p_in = min(1.0, BENCH_IN_DEGREE / block)
    p_out = min(1.0, BENCH_OUT_DEGREE / (n - block)) if n > block else 0.0
    B = np.roll(np.eye(k, dtype=np.int64), 1, axis=1)
    return BenchmarkSpec(B=B, sizes=sizes, p_in=p_in, p_out=p_out, seed=seed)


def time_pipeline(g: DirectedGraph, measure: str, r: int, k: int,
                  beta: float, seed: int, loops: int = 1) -> float:
    """Wall time per factor + clustering run; beta is resolved by the caller
    so both measures time the same amount of setup. ``loops`` consecutive
    runs are timed together to lift short measurements above timer jitter.
    """
    cfg = SimilarityConfig(r=r, beta=beta)
    start = time.perf_counter()
    for loop in range(loops):
        factor = compute_factor(g, measure, cfg)
        _roles(factor.X, r, "fixed", k, _rng(_derived_seed(seed, loop)),
               validated=False)
    return (time.perf_counter() - start) / loops


def run_bench(sizes: list[int], measures: list[str], repetitions: int,
              r: int, k: int, seed: int) -> list[tuple]:
    from .similarity import beta_estimate
    if repetitions < 1:
        raise ValueError(f"repetitions must be >= 1, got {repetitions}")
    _check_seed(seed)
    for n in sizes:  # checked before the first graph is generated
        if n < k:
            raise ValueError(f"size {n} is below k={k}: "
                             f"every role needs a node")
    rows = []
    for n in sizes:
        graph, _ = generate_planted(bench_spec(n, k, _derived_seed(seed, n)))
        # only browet reads beta
        beta = beta_estimate(graph, r) if "browet" in measures else 0.0
        for measure in measures:
            # warmup doubles as loop calibration: aim for >= 50 ms per
            # measurement so scheduler jitter cannot dominate short runs
            probe = time_pipeline(graph, measure, r, k, beta,
                                  _derived_seed(seed, n, 0xFFFF))
            loops = int(min(20, max(1, np.ceil(0.05 / max(probe, 1e-9)))))
            times = [time_pipeline(graph, measure, r, k, beta,
                                   _derived_seed(seed, n, rep), loops=loops)
                     for rep in range(repetitions)]
            rows.append((n, measure, float(np.median(times))))
    return rows


def cmd_bench(args: argparse.Namespace) -> int:
    sizes = [int(s) for s in args.sizes.split(",")]
    measures = args.measures.split(",")
    for measure in measures:
        if measure not in _MEASURES:
            raise ValueError(f"unknown measure {measure!r}")
    rows = run_bench(sizes, measures, args.repetitions, args.rank, args.k,
                     args.seed)
    _write_csv(args.out, ["n", "measure", "seconds"], rows)
    for measure in dict.fromkeys(measures):
        ns, times = zip(*[(n, s) for n, m, s in rows if m == measure])
        if len(set(ns)) >= 2:
            slope = np.polyfit(np.log(ns), np.log(times), 1)[0]
            print(f"{measure}: log-log slope {slope:.2f}", file=sys.stderr)
    return EXIT_OK


# ---------------------------------------------------------------------------
# nmi
# ---------------------------------------------------------------------------

def cmd_nmi(args: argparse.Namespace) -> int:
    with open(args.partition_a) as fh:
        a = load_partition(fh)
    with open(args.partition_b) as fh:
        b = load_partition(fh)
    print(f"{nmi(a, b):.12g}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# plumbing
# ---------------------------------------------------------------------------

def _write_csv(out: str | None, header: list[str], rows) -> None:
    fh = open(out, "w", newline="") if out else sys.stdout
    try:
        writer = csv.writer(fh, lineterminator="\r\n")
        writer.writerow(header)
        writer.writerows(rows)
    finally:
        if out:
            fh.close()


class _Parser(argparse.ArgumentParser):
    """A parser whose usage errors are one ``error:`` line and exit 1, as
    other errors do (exit 2 means that cluster validation failed)."""

    def error(self, message):
        self.exit(EXIT_ERROR, f"error: {self.prog}: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rolekit",
        description="Role extraction in directed graphs via low-rank "
                    "similarity factors.")
    sub = parser.add_subparsers(dest="command", required=True)
    fmt = argparse.ArgumentDefaultsHelpFormatter

    graph_opts = argparse.ArgumentParser(add_help=False)  # extract, hist
    graph_opts.add_argument("graph", help="edge-list file (src dst [weight])")
    graph_opts.add_argument("--measure", choices=_MEASURES, default="browet")
    graph_opts.add_argument("-r", "--rank", type=int, required=True)
    graph_opts.add_argument("--beta", type=float, default=0.0, help="scaling "
                            "parameter; 0 gives the rank-r truncation of the "
                            "one-step counts")
    graph_opts.add_argument("--one-indexed", action="store_true")
    graph_opts.add_argument("--nodes", type=int, default=None,
                            help="node count override (default: 1 + max id)")

    p = sub.add_parser("generate", formatter_class=fmt,
                       help="sample a planted-partition graph from a JSON spec")
    p.add_argument("spec", help="JSON file: {B, sizes, p_in, p_out, seed}")
    p.add_argument("--out-prefix", required=True,
                   help="writes <prefix>.edges.txt and <prefix>.truth.csv")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("extract", formatter_class=fmt, parents=[graph_opts],
                       help="extract roles from an edge list")
    p.add_argument("--out-prefix", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--k", type=int, help="known cluster count")
    group.add_argument("--k-mode", choices=_K_MODES,
                       help="estimator when the cluster count is unknown")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-6,
                   help="factor convergence tolerance")
    p.add_argument("--max-iter", type=int, default=100,
                   help="factor iteration cap")
    p.add_argument("--within", type=float, default=WITHIN_THRESHOLD,
                   help="minimum member-to-centroid inner product")
    p.add_argument("--between", type=float, default=BETWEEN_THRESHOLD,
                   help="maximum centroid-to-centroid inner product")
    p.add_argument("--max-restarts", type=int, default=DEFAULT_MAX_RESTARTS,
                   help="restart budget of a validated clustering; a "
                        "failing one reports its best-objective restart")
    p.add_argument("--gap-factor", type=float, default=DEFAULT_GAP_FACTOR,
                   help="singular-value ratio read as a gap (svd k-mode)")
    p.add_argument("--density-threshold", type=float, default=0.1,
                   help="block density above which a reduced-graph edge is set")
    p.add_argument("--keep-weights", action="store_true",
                   help="reject a third column instead of discarding it")
    p.add_argument("--save-factor", action="store_true",
                   help="also write <prefix>.factor.csv/.factor.json")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("sweep", formatter_class=fmt,
                       help="NMI over a p_in x p_out probability grid")
    p.add_argument("spec", help="JSON sweep spec")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.add_argument("--workers", type=int, default=1,
                   help="parallel cell workers, at most one per cell and per "
                        "usable CPU; output is sorted either way")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("hist", formatter_class=fmt, parents=[graph_opts],
                       help="histogram of pairwise factor-row inner products")
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_hist)

    p = sub.add_parser("bench", formatter_class=fmt,
                       help="time the factor+cluster pipeline per graph size")
    p.add_argument("--sizes", default="500,1000,2000",
                   help="comma-separated node counts")
    p.add_argument("--measures", default="browet,salton")
    p.add_argument("--repetitions", type=int, default=3)
    p.add_argument("-r", "--rank", type=int, default=3)
    p.add_argument("--k", type=int, default=3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("nmi", formatter_class=fmt,
                       help="score two partition CSV files")
    p.add_argument("partition_a")
    p.add_argument("partition_b")
    p.set_defaults(func=cmd_nmi)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SpectralGapError, DivergenceError, ArpackNoConvergence,
            ValueError, OSError, MemoryError) as exc:
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
