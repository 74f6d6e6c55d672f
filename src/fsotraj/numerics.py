"""Small numerical kernels: 3x3 symmetric eigensolves, scaled Bessel I0, KS distance.

Kept dependency-light on purpose: the only `numpy.linalg` call on these paths
is the 3x3 determinant in `eig3_symmetric`; the tests use `numpy.linalg` and
scipy as oracles.
"""
from __future__ import annotations

import math

import numpy as np

# Relative discriminant threshold below which the trigonometric eigenvalue
# formula loses accuracy and the Jacobi sweep takes over.
_EIG3_DEGENERATE_RTOL = 1e-12


def eig3_symmetric(mat: np.ndarray) -> np.ndarray:
    """Eigenvalues of a real symmetric 3x3 matrix, descending order.

    Uses the trigonometric solution of the characteristic cubic; falls back to
    cyclic Jacobi rotations when the cubic is nearly degenerate (repeated
    roots), where the closed form is ill-conditioned.
    """
    a = np.asarray(mat, dtype=float)
    if a.shape != (3, 3):
        raise ValueError(f"expected 3x3 matrix, got {a.shape}")

    scale = np.max(np.abs(a))
    if scale == 0.0:
        return np.zeros(3)

    p1 = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
    if p1 == 0.0:
        return np.sort(np.diag(a))[::-1].copy()

    q = np.trace(a) / 3.0
    p2 = np.sum((np.diag(a) - q) ** 2) + 2.0 * p1
    p = math.sqrt(p2 / 6.0)
    if p <= _EIG3_DEGENERATE_RTOL * scale:
        return jacobi_eigvals3(a)

    b = (a - q * np.eye(3)) / p
    r = np.linalg.det(b) / 2.0  # det of 3x3 expands to 12 products; keep numpy's
    r = min(1.0, max(-1.0, r))
    # Near r = +-1 the cubic has a (numerically) repeated root.
    if 1.0 - abs(r) < _EIG3_DEGENERATE_RTOL:
        return jacobi_eigvals3(a)

    phi = math.acos(r) / 3.0
    e1 = q + 2.0 * p * math.cos(phi)
    e3 = q + 2.0 * p * math.cos(phi + 2.0 * math.pi / 3.0)
    e2 = 3.0 * q - e1 - e3
    return np.array([e1, e2, e3])


def jacobi_eigvals3(mat: np.ndarray, sweeps: int = 32) -> np.ndarray:
    """Eigenvalues of a symmetric 3x3 matrix by cyclic Jacobi rotations."""
    a = np.array(mat, dtype=float)
    scale = np.max(np.abs(a))
    if scale == 0.0:
        return np.zeros(3)
    lam, _ = _jacobi3(a, scale, sweeps)
    return np.sort(lam)[::-1].copy()


def sqrtm_psd3(mat: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """Symmetric PSD square root of a 3x3 PSD matrix via Jacobi diagonalization."""
    a = np.array(mat, dtype=float)
    scale = max(np.max(np.abs(a)), 1.0e-300)
    lam, vecs = _jacobi3(a, scale, 32)
    if np.any(lam < -tol * scale):
        raise ValueError(f"matrix is not PSD within tolerance: eigenvalues {lam}")
    lam = np.clip(lam, 0.0, None)
    return (vecs * np.sqrt(lam)) @ vecs.T


def _jacobi3(a: np.ndarray, scale: float, sweeps: int) -> tuple[np.ndarray, np.ndarray]:
    """Cyclic Jacobi diagonalization of a symmetric 3x3 matrix.

    Returns the diagonal after the sweeps (unsorted eigenvalues) and the
    accumulated rotation whose columns are the matching eigenvectors.
    """
    vecs = np.eye(3)
    for _ in range(sweeps):
        off = a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2
        if off <= (1e-30 * scale) ** 2:
            break
        for p_idx, q_idx in ((0, 1), (0, 2), (1, 2)):
            apq = a[p_idx, q_idx]
            if apq == 0.0:
                continue
            diff = a[q_idx, q_idx] - a[p_idx, p_idx]
            if abs(apq) * 1e150 < abs(diff):  # tangent underflows; use the limit
                t = apq / diff
            else:
                theta = diff / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            rot = np.eye(3)
            rot[p_idx, p_idx] = rot[q_idx, q_idx] = c
            rot[p_idx, q_idx] = s
            rot[q_idx, p_idx] = -s
            a = rot.T @ a @ rot
            vecs = vecs @ rot
    return np.diag(a).copy(), vecs


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
