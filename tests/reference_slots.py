"""Per-slot reference implementations of the batched slot computations.

Each function evaluates one slot with scalar Python and small dense matrices,
the way the package did before its slot loops became array expressions. They
are slow, straightforward oracles for the batched code in `fsotraj`, and are
used only by the tests.

The module also holds the model's scalar pieces that the package no longer
needs on its own, each the oracle of a check:
- the Beer-Lambert loss and the Gaussian-beam pointing gain, which the
  package's kernels take as the -2 sigma_b z + 2 log A0(z) terms of their
  log-SNR constant;
- the attitude-jitter rotation with its small-angle form, and the projector
  onto the error plane;
- the level-flight posture implied by a velocity and an acceleration;
- the small-angle sampler of the pointing-error angle, paired sample by
  sample with `fsotraj.jitter.sample_error_angles`.
"""
from __future__ import annotations

import math
import warnings
from typing import NamedTuple

import numpy as np

from fsotraj.channel import LinkParams, capacity_offset
from fsotraj.errors import DegenerateGeometryError, DegenerateVelocityError, NearFieldWarning
from fsotraj.jitter import _plane_basis, psd_factor
from fsotraj.kinematics import Posture, roll_from_motion, rotation_matrix, yaw_from_velocity


def atmospheric_loss(sigma_b: float, z: float) -> float:
    """Exponential clear-air power decay exp(-sigma_b z)."""
    if z < 0.0:
        raise ValueError("propagation distance must be nonnegative")
    return math.exp(-sigma_b * z)


def max_pointing_gain(z: float, link: LinkParams) -> float:
    """On-axis pointing gain A0 = a^2 / (2 z sigma_div), far-field approximation."""
    if z <= 0.0:
        raise ValueError("propagation distance must be positive")
    return link.aperture**2 / (2.0 * z * link.sigma_div)


def pointing_loss(theta_p, z: float, link: LinkParams):
    """Gaussian-beam pointing gain A0 exp(-theta_p^2 / (2 sigma_div^2)).

    Warns when the beam footprint is within 10 aperture diameters (the
    far-field gain approximation degrades there).
    """
    th = np.asarray(theta_p, dtype=float)
    if np.any(th < 0.0):
        raise ValueError("pointing error angle must be nonnegative")
    footprint = 2.0 * z * link.sigma_div
    if footprint <= 10.0 * link.aperture:
        warnings.warn(
            f"beam footprint {footprint:.3g} m is within 10 apertures; "
            "far-field gain approximation is doubtful",
            NearFieldWarning,
            stacklevel=2,
        )
    out = max_pointing_gain(z, link) * np.exp(-th * th / (2.0 * link.sigma_div**2))
    return float(out) if np.ndim(theta_p) == 0 else out


class JitterSample(NamedTuple):
    """One draw of the attitude perturbation (roll, pitch, yaw), radians."""

    alpha: float
    beta: float
    gamma: float


class JitterMatrices(NamedTuple):
    exact: np.ndarray
    linearized: np.ndarray


def jitter_matrix(sample: JitterSample) -> JitterMatrices:
    """Attitude-perturbation rotation, both the exact product and its small-angle form."""
    a, b, g = sample
    exact = rotation_matrix("x", a) @ rotation_matrix("y", b) @ rotation_matrix("z", g)
    linearized = np.array([[1.0, -g, b], [g, 1.0, -a], [-b, a, 1.0]])
    return JitterMatrices(exact, linearized)


def error_projection_matrix(u_hat: np.ndarray) -> np.ndarray:
    """Projector onto the plane orthogonal to the pointing direction: I - u u^T / |u|^2."""
    u = np.asarray(u_hat, dtype=float)
    z_sq = float(np.dot(u, u))
    if z_sq == 0.0:
        raise DegenerateGeometryError("pointing vector has zero norm")
    return np.eye(3) - np.outer(u, u) / z_sq


def posture_from_motion(v, a, g: float) -> Posture:
    """Level-flight posture implied by velocity and acceleration (pitch = 0)."""
    return Posture(roll=roll_from_motion(v, a, g), pitch=0.0, yaw=yaw_from_velocity(v))


def error_plane_factor(factor: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The (N, 3, 2) matrices F_k = factor^T [e1_k e2_k] for the (N, 3) unit rows of n.

    e1_k, e2_k (`fsotraj.jitter._plane_basis`) span the plane orthogonal to
    n_k, and A = I - n n^T = E E^T, so an attitude draw x = factor d has the
    small-angle pointing-error angle sqrt(x^T A x) = |d F_k|, without the
    cancellation of |x|^2 - (x.n)^2. Each entry is an elementwise sum of three
    products, so a row's matrix does not depend on the other rows.
    """
    basis = np.stack(_plane_basis(n), axis=2)  # basis[k, m, j]: component m of e1_k (j = 0) or e2_k (j = 1)
    return (
        factor[0, :, None] * basis[:, None, 0, :]
        + factor[1, :, None] * basis[:, None, 1, :]
        + factor[2, :, None] * basis[:, None, 2, :]
    )


def small_angle_error_angles(cov, u_hat, n: int, seed=0) -> np.ndarray:
    """Small-angle draws of the pointing-error angle theta_p (radians).

    Draws the same (n, 3) attitude normals d from ``seed`` as
    `fsotraj.jitter.sample_error_angles`, so the two are paired sample by
    sample, and evaluates sqrt(x^T A x) as the length |d F| of the normals
    projected onto the error plane (`error_plane_factor`).
    """
    u = np.asarray(u_hat, dtype=float)
    d = np.random.default_rng(seed).standard_normal((n, 3))
    y = d @ error_plane_factor(psd_factor(cov.matrix), u[None, :] / math.sqrt(float(np.dot(u, u))))[0]
    return np.hypot(y[:, 0], y[:, 1])


def delta_u_coefficients_slot(s, v, a, g: float) -> tuple[np.ndarray, np.ndarray]:
    """Pointing vector (3,) and its 3x6 Jacobian at one level-flight anchor state."""
    sx, sy, sz = (float(c) for c in s)
    vx, vy = float(v[0]), float(v[1])
    ax, ay = float(a[0]), float(a[1])

    n = math.hypot(vx, vy)
    if n == 0.0:
        raise DegenerateVelocityError("anchor velocity is zero; heading undefined")

    ct, st = vx / n, vy / n
    a0 = (vy * ax - vx * ay) / (n * g)
    den = math.sqrt(1.0 + a0 * a0)
    sphi, cphi = a0 / den, 1.0 / den

    u_hat = -np.array(
        [
            sx * ct + sy * st,
            -sx * cphi * st + sy * cphi * ct + sz * sphi,
            sx * sphi * st - sy * sphi * ct + sz * cphi,
        ]
    )

    du_dct = np.array([-sx, -sy * cphi, sy * sphi])
    du_dst = np.array([-sy, sx * cphi, -sx * sphi])
    du_dcphi = np.array([0.0, sx * st - sy * ct, -sz])
    du_dsphi = np.array([0.0, -sz, -sx * st + sy * ct])

    n3 = n**3
    dct = np.array([vy * vy / n3, -vx * vy / n3])
    dst = np.array([-vx * vy / n3, vx * vx / n3])

    da0_dv = np.array([-ay / (n * g) - a0 * vx / (n * n), ax / (n * g) - a0 * vy / (n * n)])
    da0_da = np.array([vy / (n * g), -vx / (n * g)])
    dsphi_da0 = den**-3
    dcphi_da0 = -a0 * den**-3

    du_da0 = du_dcphi * dcphi_da0 + du_dsphi * dsphi_da0

    jac = np.zeros((3, 6))
    jac[:, 0] = -np.array([ct, -cphi * st, sphi * st])
    jac[:, 1] = -np.array([st, cphi * ct, -sphi * ct])
    jac[:, 2] = du_dct * dct[0] + du_dst * dst[0] + du_da0 * da0_dv[0]
    jac[:, 3] = du_dct * dct[1] + du_dst * dst[1] + du_da0 * da0_dv[1]
    jac[:, 4] = du_da0 * da0_da[0]
    jac[:, 5] = du_da0 * da0_da[1]
    return u_hat, jac


def pointing_geometry_slots(s, v, a, g) -> tuple[np.ndarray, np.ndarray]:
    """Slot-by-slot pointing vectors (N, 3) and Jacobians (N, 3, 6)."""
    n = s.shape[0]
    u_hat = np.empty((n, 3))
    u_jac = np.empty((n, 3, 6))
    for k in range(n):
        u_hat[k], u_jac[k] = delta_u_coefficients_slot(s[k], v[k], a[min(k, a.shape[0] - 1)], g)
    return u_hat, u_jac


def hoyt_eigenvalues_slot(cov, u_hat) -> tuple[float, float]:
    """The two largest eigenvalues of Sigma^1/2 A Sigma^1/2 by the 3x3 eigensolve."""
    sig_evals, sig_vecs = np.linalg.eigh(cov.matrix)
    root = (sig_vecs * np.sqrt(np.maximum(sig_evals, 0.0))) @ sig_vecs.T
    evals = np.linalg.eigvalsh(root @ error_projection_matrix(u_hat) @ root)[::-1]
    lam1, lam2 = float(evals[0]), float(max(evals[1], 0.0))
    return max(lam1, lam2), lam2


def expected_log_gamma_slot(link, z: float, hoyt) -> float:
    """E[log Gamma] of one slot by the scalar closed form, nats:
    capacity_offset(link) - 2 sigma_b z - 2 log z - omega / sigma_div^2."""
    return capacity_offset(link) - 2.0 * link.sigma_b * z - 2.0 * math.log(z) - hoyt.omega / link.sigma_div**2


def quadrature_unfolded(link, z: float, hoyt) -> float:
    """The full 48 x 32 x 32 Gauss-Hermite sum, rules rebuilt per call."""
    const = (
        2.0 * math.log(link.transmit_power)
        + 2.0 * math.log(link.responsivity)
        - 2.0 * math.log(link.noise_std)
        + math.log(math.e / (2.0 * math.pi))
        - 2.0 * link.sigma_b * z
        + 2.0 * math.log(link.aperture**2 / (2.0 * z * link.sigma_div))
    )
    x_s, w_s = np.polynomial.hermite_e.hermegauss(48)
    w_s = w_s / math.sqrt(2.0 * math.pi)
    x_j, w_j = np.polynomial.hermite_e.hermegauss(32)
    w_j = w_j / math.sqrt(2.0 * math.pi)

    scint = -4.0 * link.sigma_i**2 + 4.0 * link.sigma_i * x_s
    theta_sq = hoyt.lam1 * np.square(x_j)[:, None] + hoyt.lam2 * np.square(x_j)[None, :]
    jitter = -(theta_sq / link.sigma_div**2).ravel()
    w_jit = (w_j[:, None] * w_j[None, :]).ravel()

    t = const + scint[:, None] + jitter[None, :]
    cap = 0.5 * np.logaddexp(0.0, t) / math.log(2.0)
    return float(w_s @ cap @ w_jit)


def flight_power_slot(v, a, params) -> float:
    """Fixed-wing propulsion power of one slot, watts."""
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    speed = float(np.linalg.norm(v))
    if speed == 0.0:
        raise DegenerateVelocityError("flight power model diverges at zero speed")
    acc_sq = float(np.dot(a, a))
    return params.c1 * speed**3 + (params.c2 / speed) * (1.0 + acc_sq / params.g**2)


def log_bound_params_slot(gamma_l: float) -> tuple[float, float]:
    """Slope and intercept of the log-domain tangent bound at one anchor."""
    if gamma_l <= 0.0:
        raise ValueError("anchor must be positive")
    grad = gamma_l / (1.0 + gamma_l)
    delta = math.log1p(gamma_l) - grad * math.log(gamma_l)
    return grad, delta


def jitter_cone_slots(iterate, d_root, x_anchor6):
    """Per-slot trajectory part of the jitter cone's norm argument, for a root
    d_root of the weight matrix (d_root^T d_root = D).

    Returns (a_norm (N, 3, 6), b_norm (N, 3)).
    """
    n = iterate.n_slots
    a_norm = np.empty((n, 3, 6))
    b_norm = np.empty((n, 3))
    for k in range(n):
        dj = d_root @ iterate.u_jac[k]
        a_norm[k] = dj
        b_norm[k] = d_root @ iterate.u_hat[k] - dj @ x_anchor6[k]
    return a_norm, b_norm


def jitter_lin_slots(iterate, d_mat, x_anchor6):
    """Per-slot coefficients of the linearized jitter row.

    Returns (lin_tau (N, 6), lin_offset (N,)): its trajectory part and constant.
    """
    n = iterate.n_slots
    lin_tau = np.empty((n, 6))
    lin_offset = np.empty(n)
    for k in range(n):
        jac = iterate.u_jac[k]
        w = math.sqrt(float(iterate.u_hat[k] @ d_mat @ iterate.u_hat[k]))
        tau = jac.T @ (d_mat @ iterate.u_hat[k]) / w if w > 1e-15 else np.zeros(6)
        lin_tau[k] = tau
        lin_offset[k] = iterate.S[k] * iterate.U[k] + w - tau @ x_anchor6[k]
    return lin_tau, lin_offset
