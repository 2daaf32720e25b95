import pytest

import rolekit as rk
from reference import CYCLE3


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
