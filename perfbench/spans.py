"""Spans recorded from outside rolekit, around calls into its public
functions.

A :class:`Tracer` replaces module attributes that rolekit resolves at call
time (``rolekit.cli.load_edge_list``, ``rolekit.similarity.beta_estimate``,
``scipy.sparse.linalg.svds``, ...) with wrappers that open and close a span,
and puts the originals back when it is closed. Each span has a name, a
start, an end and the index of its parent; all spans of one op share an op
id. Spans stay in memory until the run writes them out.

With ``layers=False`` no layer wrapper is installed, so a pass measured
with tracing off runs rolekit's own code objects; only the op-level spans
the benchmark opens itself (and, in a sweep, the realization boundaries)
are recorded.
"""

from __future__ import annotations

import functools
import hashlib
import time
from dataclasses import dataclass, field

import scipy.sparse.linalg

from rolekit import cli, clustering, kestimate, similarity


@dataclass
class Span:
    name: str
    op: int
    parent: int
    start: float
    end: float = float("nan")
    data: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _counts_validated(result) -> dict:
    return {"passed": int(result[1].passed)}


# (module, attribute, span name, counts taken from the return value)
LAYER_HOOKS = [
    (cli, "load_edge_list", "graph.load", lambda g: {"edges": g.num_edges}),
    (cli, "generate_planted", "graph.generate",
     lambda res: {"edges": res[0].num_edges}),
    (cli, "extract_reduced", "graph.reduced", None),
    (cli, "browet_factor", "similarity.browet_factor",
     lambda f: {"refine_iters": f.iterations - 1}),
    (similarity, "beta_estimate", "similarity.beta", None),
    (similarity, "initial_factor", "similarity.initial_svd", None),
    (scipy.sparse.linalg, "svds", "similarity.arpack", None),
    (cli, "k_moving", "kestimate.kmoving", None),
    (cli, "hierarchical_estimate", "kestimate.hierarchical",
     lambda res: {"merges": len(res.trace["merges"])}),
    (cli, "cluster_validated", "clustering.validated", _counts_validated),
    (kestimate, "cluster_validated", "clustering.validated",
     _counts_validated),
    (clustering, "kmeans_pp_init", "clustering.seed", None),
    (clustering, "kmeans", "clustering.kmeans",
     lambda m: {"lloyd_iters": m.iterations}),
    (clustering, "validate", "clustering.validate", None),
    (cli, "nmi", "metrics.nmi", None),
]


def labels_digest(labels) -> str:
    return hashlib.sha256(labels.tobytes()).hexdigest()[:16]


class Tracer:
    """Span recorder; use as a context manager so patches are undone."""

    def __init__(self, layers: bool, sweep: bool = False):
        self.layers = layers
        self.sweep = sweep
        self.spans: list[Span] = []
        self.op_roots: list[int] = []
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._cell: tuple | None = None

    # -- span bookkeeping -------------------------------------------------

    def open(self, name: str, op_root: bool = False) -> Span:
        """Start a span under the innermost open one. An op root starts a
        new op; a top-level span that is not one (scoring after an op)
        joins the latest op."""
        if op_root:
            self.op_roots.append(len(self.spans))
        parent = self._stack[-1] if self._stack and not op_root else -1
        op = self.spans[parent].op if parent >= 0 else len(self.op_roots) - 1
        self.spans.append(Span(name, op, parent, time.perf_counter()))
        self._stack.append(len(self.spans) - 1)
        return self.spans[-1]

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        index = self._stack.pop()
        if self.spans[index] is not span:
            raise RuntimeError(f"span {span.name} closed out of order")

    def current_op(self) -> Span | None:
        return self.spans[self._stack[0]] if self._stack else None

    # -- patching ---------------------------------------------------------

    def _patch(self, owner, attr: str, wrapper) -> None:
        original = getattr(owner, attr)
        self._patched.append((owner, attr, original))
        setattr(owner, attr, functools.wraps(original)(wrapper(original)))

    def _layer(self, name: str, counts):
        def wrapper(original):
            def traced(*args, **kwargs):
                span = self.open(name)
                try:
                    result = original(*args, **kwargs)
                finally:
                    self.close(span)
                if counts is not None:
                    span.data.update(counts(result))
                return result
            return traced
        return wrapper

    def __enter__(self) -> "Tracer":
        if self.layers:
            for owner, attr, name, counts in LAYER_HOOKS:
                self._patch(owner, attr, self._layer(name, counts))
        if self.sweep:
            self._install_sweep_boundaries()
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    # -- sweep realizations -------------------------------------------------

    def _install_sweep_boundaries(self) -> None:
        """``run_sweep`` loops over realizations inside ``_sweep_cell``.
        Each realization starts with one ``generate_planted`` call, so that
        call opens a new op and closes the previous one; leaving the cell
        closes the last. A realization that ``_sweep_cell`` swallows into
        NaN never reaches ``nmi``, which is how failures are counted. The
        spec and seed derivation preceding ``generate_planted`` land in the
        previous op (microseconds)."""
        def cell_wrapper(original):
            def cell(payload):
                self._cell = (payload["p_in"], payload["p_out"])
                try:
                    return original(payload)
                finally:
                    self._end_realization()
                    self._cell = None
            return cell

        def generate_wrapper(original):
            def generate(*args, **kwargs):
                self._end_realization()
                root = self.open("cli.realization", op_root=True)
                root.data.update(cell=self._cell, partition=0, passed=0)
                return original(*args, **kwargs)
            return generate

        def validated_wrapper(original):
            def validated(*args, **kwargs):
                result = original(*args, **kwargs)
                self.current_op().data["passed"] = int(result[1].passed)
                return result
            return validated

        def nmi_wrapper(original):
            def score(truth, labels):
                value = original(truth, labels)
                self.current_op().data.update(
                    partition=1, nmi=value, k=labels.k,
                    digest=labels_digest(labels.labels))
                return value
            return score

        self._patch(cli, "_sweep_cell", cell_wrapper)
        self._patch(cli, "generate_planted", generate_wrapper)
        self._patch(cli, "cluster_validated", validated_wrapper)
        self._patch(cli, "nmi", nmi_wrapper)

    def _end_realization(self) -> None:
        if self._stack and self.spans[self._stack[-1]].name == "cli.realization":
            self.close(self.spans[self._stack[-1]])


# ---------------------------------------------------------------------------
# Self time and per-layer aggregation
# ---------------------------------------------------------------------------

def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        if span.parent >= 0:
            children.setdefault(span.parent, []).append((span.start, span.end))
    out = []
    for index, span in enumerate(spans):
        covered, reach = 0.0, span.start
        for start, end in sorted(children.get(index, [])):
            start, end = max(start, reach), min(end, span.end)
            if end > start:
                covered += end - start
                reach = end
        out.append(span.duration - covered)
    return out


KESTIMATE_SPANS = ("kestimate.kmoving", "kestimate.hierarchical")

# per-layer metric -> (span name, what to add up); "time" is the inclusive
# duration, "self" the self time, "calls" the span count, other keys sum
# a count stored on the span
LAYER_SUMS = {
    "graph.load_s": ("graph.load", "time"),
    "graph.generate_s": ("graph.generate", "time"),
    "graph.reduced_s": ("graph.reduced", "time"),
    "similarity.beta_s": ("similarity.beta", "time"),
    "similarity.beta_calls": ("similarity.beta", "calls"),
    "similarity.arpack_calls": ("similarity.arpack", "calls"),
    "similarity.arpack_s": ("similarity.arpack", "time"),
    "similarity.initial_svd_s": ("similarity.initial_svd", "time"),
    "similarity.refine_s": ("similarity.browet_factor", "self"),
    "similarity.refine_iters": ("similarity.browet_factor", "refine_iters"),
    "clustering.validated_calls": ("clustering.validated", "calls"),
    "clustering.validated_s": ("clustering.validated", "time"),
    "clustering.restarts": ("clustering.validate", "calls"),
    "clustering.seed_s": ("clustering.seed", "time"),
    "clustering.kmeans_calls": ("clustering.kmeans", "calls"),
    "clustering.kmeans_s": ("clustering.kmeans", "time"),
    "clustering.lloyd_iters": ("clustering.kmeans", "lloyd_iters"),
    "clustering.validate_s": ("clustering.validate", "time"),
    "kestimate.kmoving_s": ("kestimate.kmoving", "time"),
    "kestimate.hierarchical_s": ("kestimate.hierarchical", "time"),
    "kestimate.merges": ("kestimate.hierarchical", "merges"),
    "metrics.nmi_s": ("metrics.nmi", "time"),
}


def layer_totals(spans: list[Span], op_roots: list[int]) -> dict[str, float]:
    """Per-layer sums over one traced pass, plus the totals the ratios
    need (ops, op wall, passes, restarts)."""
    selfs = self_times(spans)
    totals = {name: 0.0 for name in LAYER_SUMS}
    for index, span in enumerate(spans):
        for metric, (name, what) in LAYER_SUMS.items():
            if span.name != name:
                continue
            if what == "time":
                totals[metric] += span.duration
            elif what == "self":
                totals[metric] += selfs[index]
            elif what == "calls":
                totals[metric] += 1
            else:
                totals[metric] += span.data.get(what, 0)
    totals.update(
        {"ops": len(op_roots),
         "op_wall_s": sum(spans[i].duration for i in op_roots),
         "cli.self_s": sum(selfs[i] for i in op_roots),
         "graph.edges": sum(span.data.get("edges", 0) for span in spans),
         "validated_passes": sum(span.data.get("passed", 0) for span in spans
                                 if span.name == "clustering.validated"),
         "kestimate.k_tried": sum(
             1 for span in spans if span.name == "clustering.validated"
             and span.parent >= 0
             and spans[span.parent].name in KESTIMATE_SPANS)})
    return totals
