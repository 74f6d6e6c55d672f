import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fsotraj.numerics import i0e, ks_distance


@given(st.floats(min_value=0.0, max_value=500.0))
@settings(max_examples=200)
def test_i0e_matches_scipy(x):
    assert i0e(x) == pytest.approx(float(scipy.special.i0e(x)), abs=1e-10)


def test_i0e_vectorized_spans_both_branches():
    x = np.linspace(0.0, 80.0, 4001)
    assert np.max(np.abs(i0e(x) - scipy.special.i0e(x))) < 1e-10


def test_ks_distance_uniform(rng):
    samples = rng.uniform(size=100_000)
    assert ks_distance(samples, lambda x: np.clip(x, 0.0, 1.0)) < 0.01
    # A shifted CDF must be flagged by roughly the shift size.
    assert ks_distance(samples, lambda x: np.clip(x - 0.2, 0.0, 1.0)) > 0.15
