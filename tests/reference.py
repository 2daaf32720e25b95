"""Reference code that only the tests use: the planted structures and
generators the suites share, JSON spec strategies for parser fuzzing, a
graph's edge set, a factor's Gram matrix, the dense fixed-point oracle of
the iterative similarity, a reader for exported factors, and mutual
information summed term by term."""

import json
import math

import numpy as np
from hypothesis import strategies as st

from rolekit.graph import DirectedGraph
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


def edge_set(g: DirectedGraph) -> set[tuple[int, int]]:
    return {(int(i), int(j)) for i, j in g.edge_array()}


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
