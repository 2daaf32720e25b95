import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rolekit as rk
from rolekit.metrics import contingency, entropy
from reference import mutual_information


def part(labels):
    return rk.RolePartition.from_labels(labels)


partitions = st.lists(st.integers(0, 5), min_size=1, max_size=60)


# ---------------------------------------------------------------------------
# contingency
# ---------------------------------------------------------------------------

def test_contingency_identity():
    t = contingency(part([0, 0, 1, 1]), part([0, 0, 1, 1]))
    assert t.n_xy.tolist() == [[2, 0], [0, 2]]


def test_contingency_relabel():
    t = contingency(part([0, 0, 1, 1]), part([1, 1, 0, 0]))
    assert t.n_xy.tolist() == [[0, 2], [2, 0]]


def test_contingency_independent():
    t = contingency(part([0, 0, 1, 1]), part([0, 1, 0, 1]))
    assert t.n_xy.tolist() == [[1, 1], [1, 1]]


def test_contingency_marginals():
    a, b = part([0, 1, 2, 0, 1]), part([1, 1, 0, 0, 1])
    t = contingency(a, b)
    assert t.n_xy.sum() == t.n == 5
    assert t.n_xy.sum(axis=1).tolist() == t.n_x.tolist()
    assert t.n_xy.sum(axis=0).tolist() == t.n_y.tolist()


def test_contingency_length_mismatch():
    with pytest.raises(ValueError):
        contingency(part([0, 1]), part([0, 1, 1]))


# ---------------------------------------------------------------------------
# entropy
# ---------------------------------------------------------------------------

def test_entropy_single_cluster():
    assert entropy([4], 4) == 0.0


def test_entropy_uniform_pair():
    assert entropy([2, 2], 4) == pytest.approx(math.log(2))


def test_entropy_one_three():
    expected = -(0.25 * math.log(0.25) + 0.75 * math.log(0.75))
    assert entropy([1, 3], 4) == pytest.approx(expected, abs=1e-10)
    assert expected == pytest.approx(0.5623, abs=1e-4)


def test_entropy_ignores_zero_counts():
    assert entropy([2, 0, 2], 4) == entropy([2, 2], 4)


# ---------------------------------------------------------------------------
# NMI examples
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("call, message", [
    (lambda: entropy([1], 0), "n must be positive"),
    (lambda: entropy([], -2), "n must be positive"),
    (lambda: rk.nmi(rk.RolePartition.from_labels([]),
                    rk.RolePartition.from_labels([])),
     "partitions must be non-empty"),
])
def test_metrics_guards_raise_their_message(call, message):
    with pytest.raises(ValueError, match=f"^{message}$") as exc:
        call()
    assert type(exc.value) is ValueError


def test_nmi_identical_is_exactly_one():
    assert rk.nmi(part([0, 0, 1, 1, 2]), part([0, 0, 1, 1, 2])) == 1.0


def test_nmi_independent_is_zero():
    assert rk.nmi(part([0, 0, 1, 1]), part([0, 1, 0, 1])) == 0.0


def test_nmi_relabeled_identical_is_one():
    assert rk.nmi(part([0, 0, 1, 1]), part([1, 1, 0, 0])) == 1.0


def test_nmi_both_trivial_is_one():
    assert rk.nmi(part([0, 0, 0]), part([0, 0, 0])) == 1.0


def test_nmi_one_trivial_is_zero():
    assert rk.nmi(part([0, 0, 0, 0]), part([0, 1, 2, 3])) == 0.0


def test_mutual_information_nonnegative_examples():
    a, b = part([0, 1, 0, 2, 1]), part([1, 0, 1, 1, 0])
    assert mutual_information(contingency(a, b)) >= -1e-12


# ---------------------------------------------------------------------------
# properties
# ---------------------------------------------------------------------------

@settings(max_examples=200, deadline=None)
@given(partitions, st.data())
def test_nmi_symmetric_and_bounded(labels_a, data):
    labels_b = data.draw(st.lists(st.integers(0, 5),
                                  min_size=len(labels_a),
                                  max_size=len(labels_a)))
    a, b = part(labels_a), part(labels_b)
    forward, backward = rk.nmi(a, b), rk.nmi(b, a)
    assert forward == backward
    assert 0.0 <= forward <= 1.0 + 1e-12


@settings(max_examples=200, deadline=None)
@given(partitions, st.data())
def test_nmi_relabel_invariant(labels_a, data):
    labels_b = data.draw(st.lists(st.integers(0, 5),
                                  min_size=len(labels_a),
                                  max_size=len(labels_a)))
    a, b = part(labels_a), part(labels_b)
    mapping = data.draw(st.permutations(range(a.k)))
    relabeled = part([mapping[x] for x in a.labels])
    assert rk.nmi(relabeled, b) == rk.nmi(a, b)


@settings(max_examples=100, deadline=None)
@given(partitions)
def test_nmi_self_is_one(labels):
    p = part(labels)
    assert rk.nmi(p, p) == 1.0
