import numpy as np

from fsotraj.numerics import ks_distance


def test_ks_distance_uniform(rng):
    samples = rng.uniform(size=100_000)
    assert ks_distance(samples, lambda x: np.clip(x, 0.0, 1.0)) < 0.01
    # A shifted CDF must be flagged by roughly the shift size.
    assert ks_distance(samples, lambda x: np.clip(x - 0.2, 0.0, 1.0)) > 0.15
