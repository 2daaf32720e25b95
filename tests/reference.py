"""Reference code that only the tests use: the planted structures and
generators the suites share, the planted generator's skip stream drawn one
uniform at a time, the all-pairs planted law, JSON spec strategies for
parser fuzzing, a graph's edge set, the reduced graph's block counts, the
explicit concatenations the SVD kernel never builds ([A | A^T] and the
Salton index's [C | D^T]), a factor's Gram matrix, the dense fixed-point
oracle of the iterative similarity, a reader for exported factors, mutual
information summed term by term, the k-means++ seeding from fresh
temporaries, the k-moving scan that clusters every candidate, and the
edge-list check's id count from one ``reduceat`` over its separators."""

import json
import math

import numpy as np
import scipy.sparse as sp
from hypothesis import strategies as st

from rolekit.clustering import (DegenerateDataError, EstimateConfig,
                                cluster_validated)
from rolekit.graph import (_MAX_FAST_DIGITS, BenchmarkSpec, DirectedGraph,
                           RolePartition, degrees)
from rolekit.metrics import ContingencyTable
from rolekit.similarity import DivergenceError, SimilarityFactor

ORACLE_LIMIT = 200

CYCLE3 = [[0, 1, 0], [0, 0, 1], [1, 0, 0]]
# five roles: a 3-cycle of blocks plus two self-referential blocks; in the
# noiseless case all pairwise factor-row inner products are exactly 0 or 1
BLOCKS5 = [[0, 1, 0, 0, 0],
           [0, 0, 1, 0, 0],
           [1, 0, 0, 0, 0],
           [0, 0, 0, 1, 0],
           [0, 0, 0, 0, 1]]


def rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def planted_skips(spec: BenchmarkSpec) -> np.ndarray:
    """The (m, 2) edges of ``rolekit.generate_planted``, in its order, from
    one uniform at a time: each block pair's edges are geometric skips
    floor(log1p(-u) / log1p(-p)) + 1 over its pairs, row-major, and the
    skip that lands past the end takes the last uniform; p = 0 and p = 1
    take none. numpy's ``log1p`` gives a scalar the bits it gives an array
    element, so the arrays must match bit for bit."""
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    offsets = np.concatenate([[0], np.cumsum(spec.sizes)]).tolist()
    sizes = spec.sizes.tolist()
    edges = []
    for a, size_a in enumerate(sizes):
        for b, size_b in enumerate(sizes):
            p = spec.p_in if spec.B[a, b] else spec.p_out
            pairs = size_a * size_b
            if p == 1:
                hits = list(range(pairs))
            elif p > 0:
                hits, position = [], -1
                while True:
                    with np.errstate(over="ignore"):  # a subnormal p
                        ratio = np.log1p(-rng.random()) / np.log1p(-p)
                    position += int(min(ratio, pairs)) + 1
                    if position >= pairs:
                        break
                    hits.append(position)
            else:
                hits = []
            edges += [(offsets[a] + i // size_b, offsets[b] + i % size_b)
                      for i in hits]
    return np.array(edges, dtype=np.int64).reshape(-1, 2)


# Most uniform doubles the oracle draws at once (8 MiB).
_ORACLE_ROW_DOUBLES = 1 << 20


def planted_oracle(spec: BenchmarkSpec) -> tuple[DirectedGraph, RolePartition]:
    """The planted law drawn pair by pair: one uniform double for every
    ordered node pair, block pair after block pair, each block row-major,
    and an edge where it is below the pair's p. ``generate_planted`` draws
    the same law by geometric skips from a different stream, so this is the
    reference for its law, not for its bytes."""
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
            step = max(1, _ORACLE_ROW_DOUBLES // size_b)
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
    graph = DirectedGraph.from_edges(int(spec.n), edges)
    return graph, RolePartition(labels=labels, k=k_b)


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12)


def spec_texts(plausible: dict):
    """JSON spec texts for parser fuzzing: objects whose fields, each
    present or not, hold a value from ``plausible[name]`` or any JSON value;
    any other JSON value; and arbitrary text."""
    fields = st.fixed_dictionaries({}, optional={
        name: st.one_of(values, json_values)
        for name, values in plausible.items()})
    return st.one_of(fields.map(json.dumps), json_values.map(json.dumps),
                     st.text(max_size=20))


def edge_array(g: DirectedGraph) -> np.ndarray:
    """All edges as an (m, 2) array in row-major (CSR) order."""
    coo = g.adj.tocoo()
    return np.column_stack([coo.row, coo.col]).astype(np.int64)


def edge_set(g: DirectedGraph) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in edge_array(g)}


def block_counts(g: DirectedGraph, p: RolePartition) -> np.ndarray:
    """Edges per block pair (a, b), counted over the (m, 2) edge array:
    the formula ``extract_reduced`` used before it read the CSR arrays."""
    edges = edge_array(g)
    return np.bincount(p.labels[edges[:, 0]] * p.k + p.labels[edges[:, 1]],
                       minlength=p.k * p.k).reshape(p.k, p.k)


def side_by_side(left, right) -> sp.csr_matrix:
    """The explicit [left | right], such as [A | A^T]: the operand of the
    LAPACK and ARPACK oracles of the SVD kernel, which reads the graph's
    CSR arrays without building it."""
    return sp.hstack([left, right], format="csr")


def salton_matrix(g: DirectedGraph) -> np.ndarray:
    """Dense degree-normalized concatenation [C | D^T]: A's rows divided
    by the square roots of the out-degrees, beside A^T's rows divided by
    those of the in-degrees (0/0 terms are 0)."""
    a = g.adj.toarray()
    k_out, k_in = degrees(g)
    c = np.divide(a, np.sqrt(k_out)[:, None], out=np.zeros_like(a),
                  where=k_out[:, None] > 0)
    d = np.divide(a, np.sqrt(k_in)[None, :], out=np.zeros_like(a),
                  where=k_in[None, :] > 0)
    return np.hstack([c, d.T])


def gram(factor: SimilarityFactor) -> np.ndarray:
    """Materialize X @ X.T (small-graph diagnostics only)."""
    return factor.X @ factor.X.T


def dense_oracle(g: DirectedGraph, beta: float, tol: float = 1e-10,
                 max_iter: int = 1000) -> np.ndarray:
    """Dense fixed point S* of S_{k+1} = S1 + beta^2 (A S_k A^T + A^T S_k A).

    Guarded to n <= 200.
    """
    if g.n > ORACLE_LIMIT:
        raise ValueError(f"dense oracle limited to n <= {ORACLE_LIMIT}")
    a = g.adj.toarray()
    s1 = a @ a.T + a.T @ a
    s = np.zeros_like(s1)
    for it in range(1, max_iter + 1):
        s_next = s1 + beta ** 2 * (a @ s @ a.T + a.T @ s @ a)
        if not np.isfinite(s_next).all():
            raise DivergenceError(it, "non-finite similarity values")
        if np.linalg.norm(s_next - s) <= tol * np.linalg.norm(s):
            return s_next
        s = s_next
    raise DivergenceError(max_iter, "fixed point not reached; beta too large "
                                    "or max_iter too small")


def load_factor(csv_path, sidecar_path) -> SimilarityFactor:
    """Read back what ``rolekit.similarity.save_factor`` wrote."""
    x = np.loadtxt(csv_path, delimiter=",", ndmin=2)
    with open(sidecar_path) as fh:
        meta = json.load(fh)
    return SimilarityFactor(X=x, r=int(meta["r"]), measure=meta["measure"],
                            beta=float(meta["beta"]),
                            iterations=int(meta["iterations"]),
                            converged=bool(meta["converged"]))


def mutual_information(table: ContingencyTable) -> float:
    n = table.n
    terms = []
    for x in range(table.n_xy.shape[0]):
        for y in range(table.n_xy.shape[1]):
            c = int(table.n_xy[x, y])
            if c > 0:
                terms.append((c / n) * math.log(
                    c * n / (int(table.n_x[x]) * int(table.n_y[y]))))
    return math.fsum(terms)


def uncertified_k_moving(x: np.ndarray, r: int, rng: np.random.Generator,
                         cfg: EstimateConfig = EstimateConfig(),
                         ) -> tuple[int, list[dict]]:
    """``rolekit.k_moving`` without ``within_bound``: every candidate k runs
    its validated clustering on child r - k of ``rng.spawn(r)``. Returns the
    estimated k and the steps, recorded as ``k_moving`` records a step it
    clusters."""
    steps = []
    for stream, k in zip(rng.spawn(r), range(r, 0, -1)):
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
            return k, steps
    return 0, steps


def count_chunk_ids_reduceat(chars: np.ndarray) -> int | None:
    """``graph._count_chunk_ids`` as one ``np.logical_or.reduceat`` over
    the separators, with no shortcut for the written form: the number of
    ids in a chunk of whole lines in the buffer parse's grammar, else
    None."""
    if chars.max(initial=0) > ord("9"):
        return None
    seps = np.flatnonzero(chars < ord("0"))
    kinds = chars[seps]
    newline = np.empty(kinds.size + 1, dtype=bool)  # the chunk's end last
    np.equal(kinds, ord("\n"), out=newline[:-1])
    newline[-1] = True
    if not (newline[:-1] | (kinds == ord(" ")) | (kinds == ord("\t"))).all():
        return None
    # gaps[i]: 1 + the length of the digit run before separator i
    gaps = np.empty(seps.size + 1, dtype=seps.dtype)
    gaps[:-1], gaps[-1] = seps, chars.size
    gaps[1:] -= seps
    gaps[0] += 1
    if gaps.max() > _MAX_FAST_DIGITS + 1:
        return None
    id_ends = np.flatnonzero(gaps > 1)
    if id_ends.size % 2:
        return None
    # whether a newline, or the chunk's end, lies between each id and the
    # next: only after the second id of a pair
    after = np.logical_or.reduceat(newline, id_ends)
    if after[0::2].any() or not after[1::2].all():
        return None
    return id_ends.size
