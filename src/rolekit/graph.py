"""Sparse directed graphs: construction, IO, degrees, planted-partition
generation and reduced-graph (block density) extraction.

All randomness is drawn from ``numpy.random.Generator`` backed by the PCG64
bit generator, and only through uniform doubles, so a given seed reproduces
the same graph on every platform.
"""

from __future__ import annotations

import io
import json
import re
from dataclasses import MISSING, dataclass, fields

import numpy as np
import scipy.sparse as sp

__all__ = [
    "DirectedGraph",
    "RolePartition",
    "BenchmarkSpec",
    "ReducedGraph",
    "EdgeListParseError",
    "load_edge_list",
    "save_edge_list",
    "load_partition",
    "save_partition",
    "degrees",
    "generate_planted",
    "extract_reduced",
]


# Parsed integers must fit int64; node ids stay below its max so that the
# node count 1 + max id fits too.
_INT64_MIN, _INT64_MAX = -2 ** 63, 2 ** 63 - 1
# The node-count line save_edge_list writes first.
_NODE_COUNT_LINE = re.compile(r"# n=([0-9]+)")


class EdgeListParseError(ValueError):
    """Malformed edge-list input; the message names the offending line."""

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")


@dataclass(frozen=True)
class DirectedGraph:
    """Immutable binary directed graph with O(deg) child and parent access.

    ``adj`` stores the adjacency in CSR form (rows enumerate children),
    ``adj_t`` its transpose, also CSR (rows enumerate parents). Entries are
    1.0, duplicates are collapsed at construction; self-loops are allowed.
    """

    n: int
    adj: sp.csr_matrix
    adj_t: sp.csr_matrix

    @classmethod
    def from_edges(cls, n: int, edges) -> "DirectedGraph":
        edges = np.asarray(list(edges) if not isinstance(edges, np.ndarray) else edges,
                           dtype=np.int64).reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        data = np.ones(len(edges))
        a = sp.coo_matrix((data, (edges[:, 0], edges[:, 1])), shape=(n, n)).tocsr()
        a.data[:] = 1.0  # tocsr summed duplicate edges; count each once
        return cls(n=n, adj=a, adj_t=a.T.tocsr())

    @property
    def num_edges(self) -> int:
        return int(self.adj.nnz)

    def edge_array(self) -> np.ndarray:
        """All edges as an (m, 2) array in row-major (CSR) order."""
        coo = self.adj.tocoo()
        return np.column_stack([coo.row, coo.col]).astype(np.int64)


@dataclass(frozen=True)
class RolePartition:
    """Assignment of each node to one of ``k`` clusters, labels in 0..k-1."""

    labels: np.ndarray
    k: int

    def __post_init__(self):
        labels = np.asarray(self.labels, dtype=np.int64)
        object.__setattr__(self, "labels", labels)
        if labels.size and (labels.min() < 0 or labels.max() >= self.k):
            raise ValueError("labels out of range for k")

    @classmethod
    def from_labels(cls, labels) -> "RolePartition":
        """Build a partition, compacting labels to a dense 0..k-1 range."""
        labels = np.asarray(labels, dtype=np.int64)
        _, dense = np.unique(labels, return_inverse=True)
        k = int(dense.max()) + 1 if dense.size else 0
        return cls(labels=dense, k=k)

    def __len__(self) -> int:
        return len(self.labels)

    def cluster_sizes(self) -> np.ndarray:
        return np.bincount(self.labels, minlength=self.k)


@dataclass(frozen=True)
class BenchmarkSpec:
    """Planted-partition benchmark: reduced adjacency ``B``, per-role sizes,
    and in/out edge probabilities."""

    B: np.ndarray
    sizes: np.ndarray
    p_in: float
    p_out: float
    seed: int

    def __post_init__(self):
        B = np.asarray(self.B, dtype=np.int64)
        sizes = np.asarray(self.sizes, dtype=np.int64)
        object.__setattr__(self, "B", B)
        object.__setattr__(self, "sizes", sizes)
        if B.ndim != 2 or B.shape[0] != B.shape[1]:
            raise ValueError("B must be square")
        if sizes.ndim != 1 or len(sizes) != B.shape[0]:
            raise ValueError("sizes must be a list as long as B")
        if sizes.size and sizes.min() <= 0:
            raise ValueError("sizes must be positive")
        if not (0.0 <= self.p_in <= 1.0 and 0.0 <= self.p_out <= 1.0):
            raise ValueError("p_in and p_out must lie in [0, 1]")
        _check_seed(self.seed)

    @property
    def n(self) -> int:
        return int(self.sizes.sum())

    @classmethod
    def from_json(cls, text: str) -> "BenchmarkSpec":
        """Parse a JSON object {B, sizes, p_in, p_out, seed}; anything else
        raises ValueError naming the unknown, missing or malformed field."""
        return _parse_spec(cls, text)


def _check_seed(seed: int) -> None:
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return _is_int(value) or isinstance(value, float)


def _is_int_array(value) -> bool:
    # nested lists of integers; the spec itself checks the shape
    if isinstance(value, list):
        return all(map(_is_int_array, value))
    return _is_int(value)


# Per spec field annotation: the JSON values it takes, their name in an
# error, and their conversion. Strings are checked against their allowed
# values by the spec itself.
_SPEC_TYPES = {
    "np.ndarray": (_is_int_array, "an integer array",
                   lambda v: np.asarray(v, dtype=np.int64)),
    "int": (_is_int, "an integer", int),
    "float": (_is_number, "a number", float),
    "float | None": (lambda v: v is None or _is_number(v), "a number or null",
                     lambda v: None if v is None else float(v)),
    "str": (lambda v: isinstance(v, str), "a string", str),
}


def _parse_spec(cls, text: str):
    """Build the spec dataclass ``cls`` from a JSON object of its fields.

    Each field takes the JSON type of its annotation and is converted in
    field order (no coercion: 1.5, true and "7" are not integers); fields
    without a default are required. Raises ValueError when the text is not
    a JSON object, a key is not a field, a required field is missing, or a
    value has the wrong type or fails to convert.
    """
    d = json.loads(text)
    if not isinstance(d, dict):
        raise ValueError(f"spec must be a JSON object, got {type(d).__name__}")
    spec_fields = {f.name: f for f in fields(cls)}
    unknown = [repr(key) for key in d if key not in spec_fields]
    if unknown:
        raise ValueError(f"spec has unknown field(s): {', '.join(unknown)}")
    missing = [name for name, f in spec_fields.items()
               if f.default is MISSING and name not in d]
    if missing:
        raise ValueError(f"spec lacks required field(s): {', '.join(missing)}")
    kwargs = {}
    for name, f in spec_fields.items():
        if name in d:
            accepts, kind, convert = _SPEC_TYPES[f.type]
            try:
                if not accepts(d[name]):
                    raise TypeError(f"invalid literal for {kind}: "
                                    f"{json.dumps(d[name])}")
                kwargs[name] = convert(d[name])
            except (TypeError, ValueError, OverflowError) as exc:
                raise ValueError(f"spec field {name!r}: {exc}") from None
    return cls(**kwargs)


@dataclass(frozen=True)
class ReducedGraph:
    """Role-level graph: per-block edge densities and thresholded adjacency."""

    k: int
    threshold: float
    density: np.ndarray
    edges: np.ndarray

    def to_json(self) -> str:
        return json.dumps({
            "k": self.k,
            "threshold": self.threshold,
            "density": self.density.tolist(),
            "edges": self.edges.astype(int).tolist(),
        }, indent=2)


# ---------------------------------------------------------------------------
# Edge-list and partition file IO
# ---------------------------------------------------------------------------

def load_edge_list(reader, one_indexed: bool = False,
                   ignore_weights: bool = True,
                   n: int | None = None) -> DirectedGraph:
    """Parse a whitespace-separated edge list into a graph.

    Lines are ``src dst`` with an optional third weight column (discarded
    when ``ignore_weights``, rejected otherwise). Blank lines and lines
    starting with ``#`` or ``%`` are skipped. The node count is ``n`` when
    given, else N from a first line ``# n=N`` (as ``save_edge_list``
    writes), else 1 + max node id after index normalization, which may be
    at most max(2**20, 16 x the number of edge lines); with ``n`` or that
    line, an id >= the count is an error naming its line.

    ``reader`` is a str, bytes or a file opened in either mode. It is read
    once, and bytes are decoded once (strict UTF-8) before either parser,
    so undecodable input fails there. The first line is read once: for
    the node count (an N past int64 is an error on line 1), and to cut a
    leading ``#``/``%`` line off the body that ``_parse_buffer`` parses as
    one buffer, in the grammar ``save_edge_list`` writes. Anything else,
    and any input that fails a check there, goes through the line loop,
    which gives the same graph and names the line of an error.
    """
    if n is not None and not 0 <= n <= _INT64_MAX:
        raise ValueError(f"node count {n} outside 0..{_INT64_MAX}")
    text = reader if isinstance(reader, (str, bytes)) else reader.read()
    if isinstance(text, bytes):
        text = text.decode()
    body_start = text.find("\n") + 1 or len(text)
    first = text[:body_start].strip()
    if n is None and (header := _NODE_COUNT_LINE.fullmatch(first)):
        n = int(header[1])
        if n > _INT64_MAX:
            raise EdgeListParseError(
                1, f"node count {n} outside 0..{_INT64_MAX}")
    shift = 1 if one_indexed else 0
    parsed = _parse_buffer(
        text[body_start:] if first.startswith(("#", "%")) else text, shift, n)
    if parsed is None:
        parsed = _parse_lines(io.StringIO(text), shift, ignore_weights, n)
    return DirectedGraph.from_edges(*parsed)


# Without a node count, 1 + the largest id sizes the graph's index arrays:
# it may be at most this many nodes per edge line, or the floor if larger.
_INFERRED_NODES_PER_EDGE = 16
_INFERRED_NODES_FLOOR = 1 << 20
# Longest id the buffer parse reads: 18 digits always fit int64.
_MAX_FAST_DIGITS = 18


def _inferred_node_limit(edge_lines: int) -> int:
    return max(_INFERRED_NODES_FLOOR, _INFERRED_NODES_PER_EDGE * edge_lines)


def _parse_buffer(body: str, shift: int,
                  n: int | None) -> tuple[int, np.ndarray] | None:
    """The node count and (m, 2) edges of an edge list in the grammar that
    ``save_edge_list`` writes, or None for any other input.

    ``body`` is the text after any leading ``#``/``%`` line; the grammar is
    a body that ``_count_id_pairs`` accepts. None also when an id fails a
    range check or the inferred node count is over its limit, so that the
    line loop can name the line.
    """
    if not body.isascii():
        return None
    body = body.encode()  # rebound: the str is freed before the parse
    tokens = _count_id_pairs(body)
    if tokens is None:
        return None
    # The checks leave the digit runs as fromstring's only tokens, so the
    # count is exact (a larger one reads uninitialised values). Given a
    # count, fromstring allocates its output once; grown by realloc it left
    # the heap fragmented, and the RSS of repeated loads kept rising.
    # Whitespace-only text would read as [0].
    ids = (np.fromstring(body, dtype=np.int64, count=tokens, sep=" ")
           if tokens else np.empty(0, dtype=np.int64))
    ids -= shift
    if n is None:
        n = int(ids.max(initial=-1)) + 1
        if n > _inferred_node_limit(ids.size // 2):
            return None
    if ids.size and (ids.min() < 0 or ids.max() >= n):
        return None
    return n, ids.reshape(-1, 2)


def _count_id_pairs(body: bytes) -> int | None:
    """The number of ids in ``body`` when it is lines of two ASCII decimal
    ids of at most 18 digits, separated by spaces or tabs, with ``\\n`` or
    ``\\r\\n`` endings and blank lines allowed; None otherwise."""
    if (body.translate(None, b"0123456789 \t\r\n")
            or body.count(b"\r") != body.count(b"\r\n")):
        return None
    chars = np.frombuffer(body, dtype=np.uint8)
    # the ids are the maximal digit runs: [starts[t], ends[t])
    bounds = np.flatnonzero(np.diff(chars >= ord("0"), prepend=False,
                                    append=False))
    starts, ends = bounds[0::2], bounds[1::2]
    if starts.size % 2 or (ends - starts).max(initial=0) > _MAX_FAST_DIGITS:
        return None
    # two per line: a pair shares a line, the next pair starts on a later one
    line = np.searchsorted(np.flatnonzero(chars == ord("\n")), starts)
    if ((line[0::2] != line[1::2]).any()
            or (line[2::2] <= line[1:-1:2]).any()):
        return None
    return starts.size


def _parse_lines(lines, shift: int, ignore_weights: bool,
                 n: int | None) -> tuple[int, np.ndarray]:
    """The node count and edges of an edge list, one line at a time; an
    error names its line."""
    id_limit = _INT64_MAX if n is None else n  # a local: checked per line
    src, dst = [], []
    top_id, top_line = -1, 0
    for line_no, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line[0] in "#%":
            continue
        parts = line.split()
        if len(parts) == 3 and not ignore_weights:
            raise EdgeListParseError(line_no, "unexpected weight column")
        if len(parts) not in (2, 3):
            raise EdgeListParseError(line_no, f"expected 2 or 3 fields, got {len(parts)}")
        try:
            i, j = int(parts[0]) - shift, int(parts[1]) - shift
        except ValueError:
            raise EdgeListParseError(line_no, f"non-integer node id in {parts[:2]}") from None
        if not (0 <= i < id_limit and 0 <= j < id_limit):
            if i < 0 or j < 0:
                raise EdgeListParseError(line_no,
                                         f"negative node id ({i}, {j})")
            if max(i, j) >= _INT64_MAX:
                raise EdgeListParseError(
                    line_no, f"node id {max(i, j)} too large for a 64-bit index")
            raise EdgeListParseError(
                line_no, f"node id {max(i, j)} >= node count {n}")
        if max(i, j) > top_id:
            top_id, top_line = max(i, j), line_no
        src.append(i)
        dst.append(j)
    if n is None:
        n = top_id + 1
        limit = _inferred_node_limit(len(src))
        if n > limit:
            raise EdgeListParseError(
                top_line, f"node id {top_id} implies {n} nodes, more than "
                f"the {limit} allowed for {len(src)} edge(s) without a node "
                f"count; give the count with --nodes or a first line "
                f"'# n=N'")
    return n, (np.column_stack([src, dst]) if src
               else np.empty((0, 2), dtype=np.int64))


# Rows formatted per write: one string of at most this many rows.
_WRITE_BLOCK = 4096


def _write_pairs(writer, pairs: np.ndarray, sep: str) -> None:
    """Write the rows of an (m, 2) integer array as ``a<sep>b`` lines."""
    for start in range(0, len(pairs), _WRITE_BLOCK):
        writer.write("".join(
            f"{a}{sep}{b}\n"
            for a, b in pairs[start:start + _WRITE_BLOCK].tolist()))


def save_edge_list(g: DirectedGraph, writer) -> None:
    writer.write(f"# n={g.n}\n")
    _write_pairs(writer, g.edge_array(), " ")


def load_partition(reader) -> RolePartition:
    """Read a ``node,cluster`` CSV (header required, one row per node).

    A malformed row raises ``ValueError`` naming its line number.
    """
    if isinstance(reader, str):
        reader = io.StringIO(reader)
    header = reader.readline().strip()
    if header.replace(" ", "") != "node,cluster":
        raise ValueError(f"expected 'node,cluster' header, got {header!r}")
    rows = []
    for line_no, line in enumerate(reader, start=2):
        line = line.strip()
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != 2:
            raise ValueError(f"line {line_no}: expected 2 fields "
                             f"'node,cluster', got {len(fields)}")
        try:
            node, cluster = int(fields[0]), int(fields[1])
        except ValueError:
            raise ValueError(f"line {line_no}: non-integer field in "
                             f"{line!r}") from None
        if not _INT64_MIN <= cluster <= _INT64_MAX:
            raise ValueError(f"line {line_no}: cluster label {cluster} "
                             f"outside the 64-bit range")
        rows.append((node, cluster))
    rows.sort()
    nodes = [r[0] for r in rows]
    if nodes != list(range(len(rows))):
        raise ValueError("partition file must cover nodes 0..n-1 exactly once")
    return RolePartition.from_labels([r[1] for r in rows])


def save_partition(p: RolePartition, writer) -> None:
    writer.write("node,cluster\n")
    _write_pairs(writer, np.column_stack([np.arange(len(p)), p.labels]), ",")


# ---------------------------------------------------------------------------
# Degree computations
# ---------------------------------------------------------------------------

def degrees(g: DirectedGraph) -> tuple[np.ndarray, np.ndarray]:
    """Out-degree (children counts) and in-degree (parent counts) vectors."""
    k_out = np.diff(g.adj.indptr).astype(np.int64)
    k_in = np.diff(g.adj_t.indptr).astype(np.int64)
    return k_out, k_in


# ---------------------------------------------------------------------------
# Planted-partition generator
# ---------------------------------------------------------------------------

# Most uniform doubles held at once while drawing a block (8 MiB).
_CHUNK_DOUBLES = 1 << 20


def generate_planted(spec: BenchmarkSpec) -> tuple[DirectedGraph, RolePartition]:
    """Sample a random graph around the role structure of ``spec.B``.

    Every ordered node pair (i, j), including i = j, receives an edge with
    probability ``p_in`` when B[R(i), R(j)] = 1 and ``p_out`` otherwise.
    Deterministic in ``spec.seed`` (PCG64; block pairs visited row-major).
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    k_b = spec.B.shape[0]
    offsets = np.concatenate([[0], np.cumsum(spec.sizes)])
    labels = np.repeat(np.arange(k_b), spec.sizes)

    rows, cols = [], []
    for a in range(k_b):
        for b in range(k_b):
            p = spec.p_in if spec.B[a, b] else spec.p_out
            size_a, size_b = int(spec.sizes[a]), int(spec.sizes[b])
            # A draw fills its array row-major, so row chunks consume the
            # same stream as one (size_a, size_b) draw.
            step = max(1, _CHUNK_DOUBLES // size_b)
            for start in range(0, size_a, step):
                u = rng.random((min(step, size_a - start), size_b))
                # the flat hits in row-major order: np.nonzero's order
                hit_i, hit_j = np.divmod(np.flatnonzero(u < p), size_b)
                if hit_i.size:
                    rows.append(hit_i + (offsets[a] + start))
                    cols.append(hit_j + offsets[b])
    if rows:
        edges = np.column_stack([np.concatenate(rows), np.concatenate(cols)])
    else:
        edges = np.empty((0, 2), dtype=np.int64)
    del rows, cols  # free the chunks before the graph is built
    graph = DirectedGraph.from_edges(int(spec.n), edges)
    return graph, RolePartition(labels=labels, k=k_b)


# ---------------------------------------------------------------------------
# Reduced-graph extraction
# ---------------------------------------------------------------------------

def _check_threshold(threshold: float) -> None:
    if not (0.0 <= threshold <= 1.0):
        raise ValueError(f"density threshold must lie in [0, 1], "
                         f"got {threshold}")


def extract_reduced(g: DirectedGraph, p: RolePartition,
                    threshold: float = 0.1) -> ReducedGraph:
    """Block edge densities and the thresholded role-level adjacency.

    density(a, b) = (# edges from cluster a to cluster b) / (|a| * |b|);
    diagonal blocks use |a|^2 (self-loops counted). An edge is set where
    density strictly exceeds ``threshold``.
    """
    if len(p.labels) != g.n:
        raise ValueError("partition length mismatch")
    _check_threshold(threshold)
    sizes = p.cluster_sizes()
    if (sizes == 0).any():
        raise ValueError(f"empty cluster(s): {np.nonzero(sizes == 0)[0].tolist()}")
    edges = g.edge_array()
    counts = np.bincount(p.labels[edges[:, 0]] * p.k + p.labels[edges[:, 1]],
                         minlength=p.k * p.k).reshape(p.k, p.k)
    denom = np.outer(sizes, sizes).astype(float)
    density = counts / denom
    return ReducedGraph(k=p.k, threshold=float(threshold), density=density,
                        edges=(density > threshold))
