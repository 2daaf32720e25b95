import json

import numpy as np
import pytest
from hypothesis import strategies as st

import rolekit as rk

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


@pytest.fixture
def cycle3_noiseless():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[50, 50, 50], p_in=1.0,
                            p_out=0.0, seed=7)
    return rk.generate_planted(spec)


@pytest.fixture
def cycle3_noisy():
    spec = rk.BenchmarkSpec(B=CYCLE3, sizes=[50, 50, 50], p_in=0.9,
                            p_out=0.1, seed=3)
    return rk.generate_planted(spec)


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
