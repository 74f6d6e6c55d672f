"""Small numerical kernels: the scaled Bessel function I0 and the KS distance.

`i0e` is written out here so that importing the package does not import
`scipy.special`, which costs tens of milliseconds and a few MB of memory;
the tests use scipy as its oracle.
"""
from __future__ import annotations

import math

import numpy as np

# --- scaled modified Bessel function of order zero ------------------------------

# Power series below this argument, asymptotic expansion above. 20 keeps both
# branches at <= ~1e-12 relative error (the asymptotic series is useless near
# the conventional 3.75 split at the accuracy required here).
_I0_SERIES_CUTOFF = 20.0


def i0e(x):
    """exp(-|x|) * I0(x), the overflow-safe scaled modified Bessel function.

    Absolute error below 1e-10 over the real line (i0e is bounded by 1).
    Accepts scalars or arrays.
    """
    x_arr = np.abs(np.asarray(x, dtype=float))
    out = np.empty_like(x_arr)
    small = x_arr <= _I0_SERIES_CUTOFF
    if np.any(small):
        out[small] = _i0e_series(x_arr[small])
    if np.any(~small):
        out[~small] = _i0e_asymptotic(x_arr[~small])
    if np.isscalar(x) or np.ndim(x) == 0:
        return float(out)
    return out


def _i0e_series(x: np.ndarray) -> np.ndarray:
    # I0(x) = sum_k (x^2/4)^k / (k!)^2; 60 terms cover x <= 20 to machine precision.
    quarter_sq = x * x / 4.0
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 60):
        term = term * quarter_sq / (k * k)
        acc += term
        if np.all(term <= 1e-17 * acc):
            break
    return np.exp(-x) * acc


def _i0e_asymptotic(x: np.ndarray) -> np.ndarray:
    # i0e(x) ~ (1/sqrt(2 pi x)) * sum_k ((2k-1)!!)^2 / (k! 8^k x^k)
    inv_x = 1.0 / x
    term = np.ones_like(x)
    acc = np.ones_like(x)
    for k in range(1, 12):
        term = term * ((2 * k - 1) ** 2) * inv_x / (8.0 * k)
        acc += term
    return acc / np.sqrt(2.0 * math.pi * x)


def ks_distance(samples: np.ndarray, cdf) -> float:
    """Kolmogorov-Smirnov distance between an empirical sample and a CDF callable."""
    s = np.sort(np.asarray(samples, dtype=float))
    n = s.size
    if n == 0:
        raise ValueError("empty sample")
    f = np.asarray(cdf(s), dtype=float)
    i = np.arange(1, n + 1)
    d_plus = np.max(i / n - f)
    d_minus = np.max(f - (i - 1) / n)
    return float(max(d_plus, d_minus))
