"""Sparse directed graphs: construction, IO, degrees, planted-partition
generation and reduced-graph (block density) extraction.

All randomness is drawn from ``numpy.random.Generator`` backed by the PCG64
bit generator, and only through uniform doubles. The planted generator
floors ratios of numpy ``log1p`` values, whose last bit may differ between
CPUs, so a seed gives the same graph on every platform almost surely (a
floor flips with a probability of about 1e-16 per uniform), not always.
"""

from __future__ import annotations

import io
import json
import os
import re
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import MISSING, dataclass, fields
from itertools import accumulate

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


# From this many edges up, where the process may run on more than one CPU,
# work on a graph is split between the calling thread and one worker: the
# Gram operator's two product chains, and the chunks of each of the two
# walks over an edge list (its check and its parse). Each handoff costs a
# thread start or a wait, so only larger graphs gain. Measured serial ->
# two threads on the bench_spec graphs of seed 1 (one BLAS thread, 2-vCPU
# Xeon, no other load). One factor solve, browet / salton in ms, medians
# of 21:
# edges (n)         r=3                         r=6
#    36k (n=1000):  3.3 -> 4.3 /  3.6 -> 5.4   14.0 -> 16.3 / 15.9 -> 18.9
#    54k (n=1500):  5.2 -> 5.0 /  5.4 -> 5.2   20.6 -> 19.4 / 20.9 -> 19.2
#    72k (n=2000):  6.5 -> 5.7 /  6.7 -> 5.9   28.9 -> 25.3 / 27.6 -> 24.1
#    90k (n=2500):  7.9 -> 6.7 /  7.7 -> 6.8   41.3 -> 34.0 / 44.3 -> 35.6
#   108k (n=3000):  8.7 -> 7.2 /  9.1 -> 7.4   52.0 -> 40.6 / 46.3 -> 37.5
#   144k (n=4000): 11.8 -> 9.2 / 12.2 -> 9.5   66.0 -> 50.4 / 78.7 -> 60.3
# One application at 576k edges (n=16000) took 2060 -> 1215 us. With other
# load on the host (medians of 9 and 15), two threads lost 6 of 16 solves
# at 72k-101k edges, by up to 15%, and 3 of 20 at 108k-144k, by up to 10%:
# the worker then waits for the second CPU. The parse of the same graphs
# as save_edge_list writes them (``_parse_buffer``, the gate lowered to 0),
# in ms, medians of 41:
#    36k: 3.4 -> 4.0     54k: 3.9 -> 4.3     72k: 5.5 -> 4.9    90k: 6.8 -> 5.5
#   108k: 8.2 -> 6.2    144k: 10.7 -> 7.6   576k: 44.3 -> 27.2
# Both cross over between 36k and 72k edges on an idle host; the gate sits
# where each gains about 20%.
_THREADED_EDGES = 100_000


def _usable_cpus() -> int:
    """The number of CPUs this process may run on: its affinity mask where
    the platform has one (Linux), else the machine's CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@contextmanager
def _beside(edges: int):
    """Yield ``pair(first, second) -> (first(), second())`` for work on a
    graph of ``edges`` edges. From ``_THREADED_EDGES`` up, where the
    process may run on more than one CPU, ``second`` runs on a worker
    thread while ``first`` runs on the calling one; otherwise both run
    here, in that order. The worker is created on entry and joined on
    exit, also when ``first`` raises, so no thread outlives the context and
    a process forked later inherits no pool."""
    if edges < _THREADED_EDGES or _usable_cpus() < 2:
        yield lambda first, second: (first(), second())
        return
    with ThreadPoolExecutor(1) as pool:
        def pair(first, second):
            later = pool.submit(second)
            return first(), later.result()
        yield pair


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
    Both matrices hold one shared, read-only float64 array of ones as
    their ``data``, so the graph takes 16 bytes per edge: 8 for the ones
    and 4 for each of the two index arrays (int32 below 2**31 nodes).
    """

    n: int
    adj: sp.csr_matrix
    adj_t: sp.csr_matrix

    @classmethod
    def from_edges(cls, n: int, edges) -> "DirectedGraph":
        """The graph on nodes 0..n-1 with the given (m, 2) edges.

        Edges already in CSR order (sources non-decreasing, targets
        strictly increasing within a source, as ``save_edge_list`` writes
        them) give ``adj`` directly: ``indptr`` from a search over the
        sources, ``indices`` a copy of the targets. Any other order,
        duplicates included, takes the COO -> CSR build, which sorts and
        collapses them. Either build holds one byte per entry, as does the
        transpose, and both then take one read-only array of ones.

        An integer array is used in its own dtype, so ids already in
        scipy's index dtype are not copied before the build. The ids are
        released after that build: passed as a temporary, with no other
        reference, they are freed before the transpose is built."""
        if not isinstance(edges, np.ndarray):
            edges = np.array(list(edges), dtype=np.int64)
        if edges.dtype.kind not in "iu":
            edges = edges.astype(np.int64)
        edges = edges.reshape(-1, 2)
        if edges.size and (edges.min() < 0 or edges.max() >= n):
            raise ValueError("edge endpoint out of range")
        src, dst = edges[:, 0], edges[:, 1]
        marks = np.ones(len(edges), dtype=bool)
        if _in_csr_order(src, dst):
            # row starts searched in a dtype that holds the ids and n, so
            # the sources are not cast to another
            rows = np.arange(n + 1, dtype=np.promote_types(
                src.dtype, np.min_scalar_type(n)))
            a = sp.csr_matrix((marks, dst.copy(), np.searchsorted(src, rows)),
                              shape=(n, n))
        else:
            # a duplicate edge is counted once (True + True is True)
            a = sp.coo_matrix((marks, (src, dst)), shape=(n, n)).tocsr()
        del edges, src, dst, marks
        a_t = a.T.tocsr()
        ones = np.ones(a.nnz)
        ones.flags.writeable = False
        a.data = a_t.data = ones
        return cls(n=n, adj=a, adj_t=a_t)

    @property
    def num_edges(self) -> int:
        return int(self.adj.nnz)


def _in_csr_order(src: np.ndarray, dst: np.ndarray) -> bool:
    """Whether edges with these sources and targets are in CSR order with
    no duplicate: each pair is past the one before it in (source, target)
    order. The sources are tested alone first, where ``generate_planted``'s
    block-ordered edges fail, so that test is all they cost."""
    if not (src[1:] >= src[:-1]).all():
        return False
    return bool(((src[1:] > src[:-1]) | (dst[1:] > dst[:-1])).all())


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

    ``reader`` is a str, bytes or a file opened in either mode, read once
    and turned into bytes once: a str is encoded (``surrogatepass``, so any
    str is taken), and non-ASCII bytes are checked as strict UTF-8, so
    undecodable input fails there, naming its position in the input.
    ``\\r\\n`` and ``\\r`` then end a line as ``\\n`` does, as in a file
    opened in text mode, so every form of the same file gives one result.
    The first line alone is decoded: for the node count (an N past int64
    is an error on line 1), and to find a leading ``#``/``%`` line, which
    both parsers skip. ``_parse_buffer`` parses the bytes after it in
    place when they are ASCII lines of two ids: one walk over its chunks
    checks them and counts their ids, a second parses them, and each walk
    splits the chunks in halves through ``_beside``, which walks the later
    half on a worker thread for a large body where more than one CPU is
    usable. Anything else, and any input that fails a check there, is
    sliced and decoded for the line loop, which gives the same graph and
    names the line of an error.
    """
    if n is not None and not 0 <= n <= _INT64_MAX:
        raise ValueError(f"node count {n} outside 0..{_INT64_MAX}")
    body = reader if isinstance(reader, (str, bytes)) else reader.read()
    if isinstance(body, str):
        body = body.encode("utf-8", "surrogatepass")
    elif not body.isascii():
        body.decode()  # strict UTF-8: an error names its position
    if b"\r" in body:
        body = body.replace(b"\r\n", b"\n").replace(b"\r", b"\n")
    body_start = body.find(b"\n") + 1 or len(body)
    first = body[:body_start].decode("utf-8", "surrogatepass").strip()
    if n is None and (header := _NODE_COUNT_LINE.fullmatch(first)):
        n = int(header[1])
        if n > _INT64_MAX:
            raise EdgeListParseError(
                1, f"node count {n} outside 0..{_INT64_MAX}")
    shift = 1 if one_indexed else 0
    if not first.startswith(("#", "%")):
        body_start = 0
    parsed = _parse_buffer(body, shift, n, body_start)
    if parsed is None:
        parsed = _parse_lines(
            io.StringIO(body[body_start:].decode("utf-8", "surrogatepass")),
            shift, ignore_weights, n, 2 if body_start else 1)
    # What this call read is freed before the graph is built. Popped, the
    # ids have no reference left here: from_edges frees them before it
    # builds the transpose.
    del body
    return DirectedGraph.from_edges(parsed[0], parsed.pop())


# Without a node count, 1 + the largest id sizes the graph's index arrays:
# it may be at most this many nodes per edge line, or the floor if larger.
_INFERRED_NODES_PER_EDGE = 16
_INFERRED_NODES_FLOOR = 1 << 20
# Longest id the buffer parse reads: 18 digits always fit int64.
_MAX_FAST_DIGITS = 18


def _inferred_node_limit(edge_lines: int) -> int:
    return max(_INFERRED_NODES_FLOOR, _INFERRED_NODES_PER_EDGE * edge_lines)


def _parse_buffer(body: bytes, shift: int, n: int | None,
                  start: int = 0) -> list | None:
    """[the node count, the (m, 2) edges] of the edge-list body from
    ``start`` on, when it is ASCII lines of two decimal ids of 1 to 18
    digits, separated by spaces or tabs, blank lines allowed; None for any
    other body.

    ``start`` is past any leading ``#``/``%`` line of the input. None also
    when an id fails a range check or the inferred node count is over its
    limit, so that the line loop can name the line. Two walks run over the
    chunks of ``_chunks``: the check counts each chunk's ids, then the
    parse writes them into one array of sources and one of targets in
    scipy's index dtype for the node count (int32 below 2**31), so the
    graph's build copies neither. Each chunk's pairs take their own
    columns, at the offset the counts before it give. The first chunk is
    checked on its own: its ids per byte estimate the body's edges, and
    each walk then runs the two halves of its chunks through the pair that
    ``_beside`` yields for that many edges, which may walk the later half
    on a worker thread while the calling thread walks the first. The ids,
    the node count and every None are those of one walk over all the
    chunks.
    """
    chunks = list(_chunks(body, start))
    counts = _check_chunks(body, chunks[:1])
    if counts is None:
        return None
    # the first chunk's ids per byte estimate the body's edges for the gate:
    # on the written form, whose first lines are the shortest, 6% high at
    # n=2800 (100861 edges) and 17% at n=16000
    edges = (counts[0] * (len(body) - start) // (2 * (chunks[0][1] - start))
             if chunks else 0)
    with _beside(edges) as pair:
        for half in _in_halves(pair, lambda part: _check_chunks(body, part),
                               chunks[1:]):
            if half is None:
                return None
            counts += half
        offsets = list(accumulate(counts, initial=0))
        pairs = offsets[-1] // 2
        # every id lies below the node count, or below the inferred
        # count's limit when none is given
        bound = _inferred_node_limit(pairs) if n is None else n
        ends = np.empty((2, pairs), dtype=sp.get_index_dtype(maxval=bound))
        tops = _in_halves(pair, lambda part: _read_chunks(
            body, part, ends, shift, bound), list(zip(chunks, counts,
                                                      offsets)))
    if None in tops:
        return None
    return [max(tops) + 1 if n is None else n, ends.T]


def _in_halves(pair, walk, items: list) -> tuple:
    """(walk(first half of items), walk(second half)) through ``pair``."""
    half = len(items) // 2
    return pair(lambda: walk(items[:half]), lambda: walk(items[half:]))


def _check_chunks(body: bytes, chunks: list) -> list | None:
    """The id count of each (start, end) chunk of ``body``, or None at the
    first chunk outside ``_parse_buffer``'s grammar."""
    counts = []
    for lo, hi in chunks:
        counts.append(_count_chunk_ids(np.frombuffer(
            body, dtype=np.uint8, count=hi - lo, offset=lo)))
        if counts[-1] is None:
            return None
    return counts


def _read_chunks(body: bytes, parts: list, ends: np.ndarray, shift: int,
                 bound: int) -> int | None:
    """Parse each ((start, end), id count, ids before it) of ``parts`` into
    its columns of ``ends``, ids less ``shift``; the largest id, -1 for
    none, or None at the first id outside 0..bound-1."""
    top = -1
    for (lo, hi), count, before in parts:
        if not count:
            continue  # whitespace-only text would read as [0]
        # The check leaves the digit runs as fromstring's only tokens, so
        # the count is exact (a larger one reads uninitialised values).
        # Given a count, fromstring allocates its output once; grown by
        # realloc it left the heap fragmented, and the RSS of repeated
        # loads kept rising.
        ids = np.fromstring(body[lo:hi], dtype=np.int64, count=count,
                            sep=" ")
        ids -= shift
        high = int(ids.max())
        if ids.min() < 0 or high >= bound:
            return None
        top = max(top, high)
        ends[:, before // 2:(before + count) // 2] = ids.reshape(-1, 2).T
        del ids  # freed before the next chunk's ids are read
    return top


# Most bytes of the body that ``_parse_buffer`` checks and reads at a time
# (a longer line is one chunk): about 25k lines as ``save_edge_list``
# writes them at n = 16000, whose position arrays and int64 ids take
# about 1.2 MB.
_ID_CHUNK = 1 << 18


def _chunks(body: bytes, start: int = 0):
    """The (start, end) of each chunk of whole lines of ``body`` from
    ``start`` on, in order: a chunk ends after the last newline within
    ``_ID_CHUNK`` bytes of its start (after its first line when that is
    longer), or at the body's end."""
    while start < len(body):
        end = len(body)
        if start + _ID_CHUNK < end:
            cut = body.rfind(b"\n", start, start + _ID_CHUNK)
            if cut < 0:
                cut = body.find(b"\n", start + _ID_CHUNK)
            if cut >= 0:
                end = cut + 1
        yield start, end
        start = end


def _count_chunk_ids(chars: np.ndarray) -> int | None:
    """The number of ids in one chunk of whole lines when it is in
    ``_parse_buffer``'s grammar, else None. Every non-digit byte then
    separates ids, so the check reads only those bytes and their
    positions."""
    if chars.max(initial=0) > ord("9"):
        return None
    seps = np.flatnonzero(chars < ord("0"))
    kinds = chars[seps]
    newline = np.empty(kinds.size + 1, dtype=bool)  # the chunk's end last
    np.equal(kinds, ord("\n"), out=newline[:-1])
    newline[-1] = True
    if not (newline[:-1] | (kinds == ord(" ")) | (kinds == ord("\t"))).all():
        return None
    # gaps[i]: 1 + the length of the digit run before separator i, the
    # last entry that of the run before the chunk's end
    gaps = np.empty(seps.size + 1, dtype=seps.dtype)
    gaps[:-1], gaps[-1] = seps, chars.size
    gaps[1:] -= seps
    gaps[0] += 1
    del seps
    if gaps.max() > _MAX_FAST_DIGITS + 1:
        return None
    id_ends = np.flatnonzero(gaps > 1)
    del gaps
    if id_ends.size % 2:
        return None
    # whether a newline, or the chunk's end, lies between each id and the
    # next: only after the second id of a pair. id_ends rises by at least 1
    # per id, so one entry per separator, the last at the last separator,
    # means every separator ends an id, as in the written form: each id's
    # segment is then its one separator, the last also holding the chunk's
    # end.
    if id_ends.size == kinds.size > 0 and id_ends[-1] == kinds.size - 1:
        after = newline[:-1]
        after[-1] = True
    else:
        after = np.logical_or.reduceat(newline, id_ends)
    if after[0::2].any() or not after[1::2].all():
        return None
    return id_ends.size


def _parse_lines(lines, shift: int, ignore_weights: bool, n: int | None,
                 first_line: int = 1) -> list:
    """[the node count, the (m, 2) edges] of an edge list, one line at a
    time, the first of ``lines`` being line ``first_line``; an error names
    its line."""
    id_limit = _INT64_MAX if n is None else n  # a local: checked per line
    src, dst = [], []
    top_id, top_line = -1, 0
    for line_no, line in enumerate(lines, start=first_line):
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
    return [n, (np.column_stack([src, dst]) if src
                else np.empty((0, 2), dtype=np.int64))]


# Lines formatted per write: one string of at most this many lines.
_WRITE_BLOCK = 4096
# 10, 100, ..., 10**18: a non-negative int64 has 1 + (how many of these
# are <= it) decimal digits.
_POWERS_OF_TEN = 10 ** np.arange(1, 19, dtype=np.int64)


def _write_pairs(writer, first: np.ndarray, second: np.ndarray,
                 sep: str) -> None:
    """Write ``f"{a}{sep}{b}\\n"`` for each a, b of two equal-length arrays
    of non-negative integers, as one string.

    The lines are built as one ``uint8`` buffer. Each column becomes a
    (lines, width + 1) array: its digits, right-aligned by repeated
    division by 10, then ``sep`` or the newline. A mask over the two side
    by side drops the unused leading places in row-major order.
    """
    parts, keep = [], []
    for values, end in ((first, sep), (second, "\n")):
        digits = 1 + np.searchsorted(_POWERS_OF_TEN, values, side="right")
        width = int(digits.max(initial=1))
        places = np.empty((len(values), width + 1), dtype=np.uint8)
        rest = values
        for place in range(width - 1, -1, -1):
            rest, places[:, place] = np.divmod(rest, 10)
        places[:, :width] += ord("0")
        places[:, width] = ord(end)
        parts.append(places)
        keep.append(np.arange(width + 1) >= width - digits[:, None])
    writer.write(str(np.hstack(parts)[np.hstack(keep)], "ascii"))


def save_edge_list(g: DirectedGraph, writer) -> None:
    """Write ``# n=N`` and one ``i j`` line per edge, in CSR order,
    formatted from the CSR arrays ``_WRITE_BLOCK`` edges at a time."""
    writer.write(f"# n={g.n}\n")
    indptr, indices = g.adj.indptr, g.adj.indices
    for start in range(0, g.num_edges, _WRITE_BLOCK):
        stop = min(start + _WRITE_BLOCK, g.num_edges)
        # rows first..last-1 hold the block's edges, each row's edges
        # counted within the block
        first = np.searchsorted(indptr, start, side="right") - 1
        last = np.searchsorted(indptr, stop - 1, side="right")
        counts = np.diff(np.clip(indptr[first:last + 1], start, stop))
        _write_pairs(writer, np.repeat(np.arange(first, last), counts),
                     indices[start:stop], " ")


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
    """Write ``node,cluster`` and one ``node,label`` line per node,
    ``_WRITE_BLOCK`` nodes at a time."""
    writer.write("node,cluster\n")
    for start in range(0, len(p), _WRITE_BLOCK):
        labels = p.labels[start:start + _WRITE_BLOCK]
        _write_pairs(writer, np.arange(start, start + len(labels)), labels,
                     ",")


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

# Most uniform doubles drawn at once (512 KiB).
_SKIP_CHUNK = 1 << 16


def _block_hits(rng: np.random.Generator, p: float, pairs: int):
    """The flat indices of a block pair's edges, ascending, in runs.

    Each edge lies floor(log1p(-u) / log1p(-p)) + 1 pairs past the last,
    for the next uniform u (geometric skips; Batagelj & Brandes 2005), so
    each pair is an edge with probability p, independently. The block pair
    takes one uniform per edge and the one whose skip lands past its end,
    and none when p is 0 or 1. A chunk of uniforms covers the hits expected
    of the pairs left plus four standard deviations, at most
    ``_SKIP_CHUNK``; the generator is rewound to the uniform after the
    overshoot, so the stream does not depend on the chunk size.
    """
    if p == 1:
        yield np.arange(pairs)
    if p in (0, 1):
        return
    bits, log_q, last = rng.bit_generator, np.log1p(-p), -1
    while True:
        left = pairs - 1 - last
        mean = p * left
        count = int(mean + 4 * (mean * (1 - p)) ** 0.5) + 1
        state = bits.state
        skips = rng.random(min(_SKIP_CHUNK, count))
        np.negative(skips, out=skips)
        # a tiny p's ratio may overflow; clipped, it still lands past the end
        with np.errstate(over="ignore"):
            np.log1p(skips, out=skips)
            skips /= log_q
        np.minimum(skips, left, out=skips)
        hits = np.cumsum(skips.astype(np.int64) + 1) + last
        # the first position past the end (the sums after it may wrap)
        end = int(np.argmax(hits >= pairs))
        if hits[end] >= pairs:
            bits.state = state
            bits.advance(end + 1)
            yield hits[:end]
            return
        yield hits
        last = int(hits[-1])


def _planted_edges(spec: BenchmarkSpec) -> np.ndarray:
    """The (m, 2) edges of ``generate_planted``, in scipy's index dtype for
    the node count, in the stream's order."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    dtype = sp.get_index_dtype(maxval=spec.n)
    offsets = np.concatenate([[0], np.cumsum(spec.sizes)]).tolist()
    sizes = spec.sizes.tolist()
    pieces = []
    for a, size_a in enumerate(sizes):
        for b, size_b in enumerate(sizes):
            p = spec.p_in if spec.B[a, b] else spec.p_out
            for hits in _block_hits(rng, p, size_a * size_b):
                rows = hits // size_b
                edges = np.empty((hits.size, 2), dtype=dtype)
                np.add(rows, offsets[a], out=edges[:, 0])
                np.subtract(hits, rows * size_b - offsets[b], out=edges[:, 1])
                pieces.append(edges)
    return (np.concatenate(pieces) if pieces
            else np.empty((0, 2), dtype=dtype))


def generate_planted(spec: BenchmarkSpec) -> tuple[DirectedGraph, RolePartition]:
    """Sample a random graph around the role structure of ``spec.B``.

    Every ordered node pair (i, j), including i = j, receives an edge with
    probability ``p_in`` when B[R(i), R(j)] = 1 and ``p_out`` otherwise,
    independently. One PCG64 generator seeded with ``spec.seed`` draws the
    block pairs row-major, each by geometric skips over its pairs in
    row-major order (``_block_hits``): O(|E|) time, not O(n^2).
    """
    labels = np.repeat(np.arange(spec.B.shape[0]), spec.sizes)
    # the ids are a temporary: from_edges frees them before the transpose
    graph = DirectedGraph.from_edges(int(spec.n), _planted_edges(spec))
    return graph, RolePartition(labels=labels, k=spec.B.shape[0])


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
    # edges per block pair as M^T (A M), M the n x k membership matrix:
    # O(n k) memory, as the factor the labels come from, and none per edge;
    # every partial sum is an integer below 2**53, so the counts are exact
    member = np.zeros((g.n, p.k))
    member[np.arange(g.n), p.labels] = 1.0
    counts = member.T @ (g.adj @ member)
    denom = np.outer(sizes, sizes).astype(float)
    density = counts / denom
    return ReducedGraph(k=p.k, threshold=float(threshold), density=density,
                        edges=(density > threshold))
