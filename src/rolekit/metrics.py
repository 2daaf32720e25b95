"""Information-theoretic comparison of two node partitions.

Entropies and mutual information use natural logarithms and exactly
rounded summation (math.fsum), which makes the scores bitwise invariant
under cluster relabelling and argument order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import RolePartition

__all__ = [
    "ContingencyTable",
    "contingency",
    "entropy",
    "nmi",
]


@dataclass(frozen=True)
class ContingencyTable:
    """Joint cluster-membership counts of two partitions over the same nodes."""

    n: int
    n_x: np.ndarray
    n_y: np.ndarray
    n_xy: np.ndarray


def contingency(a: RolePartition, b: RolePartition) -> ContingencyTable:
    if len(a) != len(b):
        raise ValueError(f"partition lengths differ: {len(a)} vs {len(b)}")
    joint = np.bincount(a.labels * b.k + b.labels,
                        minlength=a.k * b.k).reshape(a.k, b.k)
    return ContingencyTable(n=len(a),
                            n_x=np.bincount(a.labels, minlength=a.k),
                            n_y=np.bincount(b.labels, minlength=b.k),
                            n_xy=joint)


def entropy(counts, n: int) -> float:
    """Entropy in nats of the distribution counts/n; zero counts drop out."""
    if n <= 0:
        raise ValueError("n must be positive")
    terms = [(c / n) * math.log(c / n) for c in np.asarray(counts).ravel()
             if c > 0]
    return -math.fsum(terms)


def nmi(a: RolePartition, b: RolePartition) -> float:
    """Mutual information normalized by the geometric mean of the entropies.

    1 means the partitions are identical up to relabelling, 0 that they are
    independent. Two single-cluster partitions convey the same (absent)
    structure, scoring 1; exactly one zero-entropy partition scores 0.

    The mutual information is evaluated through the entropy identity
    I = H(X) + H(Y) - H(X,Y) with exactly rounded sums, so identical
    partitions score exactly 1 rather than 1 minus an ulp.
    """
    table = contingency(a, b)
    if table.n < 1:
        raise ValueError("partitions must be non-empty")
    h_a = entropy(table.n_x, table.n)
    h_b = entropy(table.n_y, table.n)
    if h_a == 0.0 and h_b == 0.0:
        return 1.0
    if h_a == 0.0 or h_b == 0.0:
        return 0.0
    info = math.fsum([h_a, h_b, -entropy(table.n_xy, table.n)])
    assert info >= -1e-12, f"mutual information {info} below round-off floor"
    # the geometric mean of equal entropies is exact
    denom = h_a if h_a == h_b else math.sqrt(h_a * h_b)
    value = info / denom
    assert value <= 1.0 + 1e-9, f"NMI overshoot {value}"
    return min(max(value, 0.0), 1.0)
