"""Generalized 3D attitude-jitter model and the induced pointing-error statistics.

Roll/pitch/yaw perturbations (alpha, beta, gamma) are zero-mean jointly
Gaussian with covariance ``Sigma``. Projected onto the plane orthogonal to the
UAV-to-GS pointing vector they produce a pointing-error angle whose law is
Hoyt (Nakagami-q); the two nonzero eigenvalues of ``Sigma^1/2 A Sigma^1/2``
are the squared semi-axes of that law. `hoyt_eigenvalues` computes them for
every slot of a trajectory at once from the projected 2x2 matrix
``E^T Sigma E`` (E an orthonormal basis of the error plane); `hoyt_params`
is its one-direction case. Both the closed-form capacity and the Monte Carlo
capacity take the law from these eigenvalues: the quadrature integrates over
them and the sampler scales two error-plane normals by their square roots.

Pure functions throughout; the sampler takes an explicit seed or Generator,
so parallel Monte Carlo runs on independently seeded streams merge
order-independently.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .errors import (
    DegenerateGeometryError,
    DegenerateHoytWarning,
    InvalidCovarianceError,
    UnsupportedReductionError,
    slot_suffix,
)
from .kinematics import rotation_matrix

# Below this axis ratio the Hoyt density is evaluated in its folded-normal
# limit to dodge overflow in the Bessel argument.
_Q_DEGENERATE = 1e-4
# Points of the uniform grid on which hoyt_cdf integrates the density.
_CDF_GRID_POINTS = 40001


@dataclass(frozen=True)
class JitterCovariance:
    """Attitude-jitter second moments: std devs in radians plus pairwise correlations.

    ``rho = (rho_roll_pitch, rho_pitch_yaw, rho_yaw_roll)``. The default is the
    standard simulation jitter, (1, 0.3, 0.1) mrad and uncorrelated.
    """

    sigma: tuple[float, float, float] = (1.0e-3, 0.3e-3, 0.1e-3)
    rho: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if len(self.sigma) != 3 or len(self.rho) != 3:
            raise InvalidCovarianceError("need three std devs and three correlations")
        if any(s < 0.0 for s in self.sigma):
            raise InvalidCovarianceError("jitter std devs must be nonnegative")
        if any(abs(r) > 1.0 for r in self.rho):
            raise InvalidCovarianceError("correlations must lie in [-1, 1]")
        m = self.matrix
        evals = np.linalg.eigvalsh(m)
        tol = max(1e-12, 1e-12 * float(np.trace(m)))
        if evals[0] < -tol:
            raise InvalidCovarianceError(f"covariance not PSD: eigenvalues {evals}")

    @property
    def matrix(self) -> np.ndarray:
        sa, sb, sg = self.sigma
        rab, rbg, rga = self.rho
        return np.array(
            [
                [sa * sa, rab * sa * sb, rga * sg * sa],
                [rab * sa * sb, sb * sb, rbg * sb * sg],
                [rga * sg * sa, rbg * sb * sg, sg * sg],
            ]
        )

    @property
    def is_diagonal(self) -> bool:
        return all(r == 0.0 for r in self.rho)

    @classmethod
    def from_mrad(cls, sigma_mrad, rho=(0.0, 0.0, 0.0)) -> "JitterCovariance":
        return cls(tuple(s * 1e-3 for s in sigma_mrad), tuple(rho))


@dataclass(frozen=True)
class HoytParams:
    """Pointing-error law parameters: semi-axis variances lam1 >= lam2 (rad^2).

    ``q = sqrt(lam2/lam1)`` (the standard 0 < q <= 1 axis-ratio convention) and
    ``omega = lam1 + lam2 = E[theta_p^2]``.
    """

    lam1: float
    lam2: float
    q: float = field(init=False)
    omega: float = field(init=False)

    def __post_init__(self):
        if not (self.lam1 >= self.lam2 >= 0.0):
            raise ValueError("require lam1 >= lam2 >= 0")
        object.__setattr__(self, "q", math.sqrt(self.lam2 / self.lam1) if self.lam1 > 0 else 1.0)
        object.__setattr__(self, "omega", self.lam1 + self.lam2)


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


def hoyt_eigenvalues(cov: JitterCovariance, u_hat: np.ndarray) -> np.ndarray:
    """Hoyt semi-axis variances (lam1, lam2) for every pointing direction, shape (N, 2).

    ``u_hat`` is an (N, 3) array of pointing vectors, one per slot. With E an
    orthonormal basis of the plane orthogonal to u, the projector is
    A = E E^T, so the two nonzero eigenvalues of Sigma^1/2 A Sigma^1/2 are those
    of the 2x2 matrix E^T Sigma E = [[p, r], [r, q]]:
    (p + q)/2 +- hypot((p - q)/2, r). Their sum equals Tr(Sigma A).
    """
    u = np.asarray(u_hat, dtype=float)
    if u.ndim != 2 or u.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of pointing vectors, got {u.shape}")
    norm = np.sqrt(np.einsum("ki,ki->k", u, u))
    if np.any(norm == 0.0):
        raise DegenerateGeometryError(f"pointing vector has zero norm{slot_suffix(norm == 0.0)}")
    e1, e2 = _plane_basis(u / norm[:, None])
    sigma = cov.matrix
    sigma_e1 = e1 @ sigma
    p = np.einsum("ki,ki->k", sigma_e1, e1)
    r = np.einsum("ki,ki->k", sigma_e1, e2)
    q = np.einsum("ki,ki->k", e2 @ sigma, e2)
    mid = 0.5 * (p + q)
    rad = np.hypot(0.5 * (p - q), r)
    return np.column_stack([mid + rad, np.maximum(mid - rad, 0.0)])


def _plane_basis(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Orthonormal vectors e1, e2 spanning the plane orthogonal to each unit row of n.

    With (a, b, c) the components of n reordered so that |c| is the smallest,
    e1 = (b, -a, 0) / h and e2 = n x e1 = (c a / h, c b / h, -h), h = hypot(a, b).
    Every component is a product or quotient, so no cancellation occurs.
    """
    k = np.argmin(np.abs(n), axis=1)
    order = np.column_stack([(k + 1) % 3, (k + 2) % 3, k])
    a, b, c = np.take_along_axis(n, order, axis=1).T
    h = np.hypot(a, b)
    zero = np.zeros_like(h)
    e1 = np.empty_like(n)
    e2 = np.empty_like(n)
    np.put_along_axis(e1, order, np.column_stack([b / h, -a / h, zero]), axis=1)
    np.put_along_axis(e2, order, np.column_stack([c * a / h, c * b / h, -h]), axis=1)
    return e1, e2


def _error_plane_factor(factor: np.ndarray, n: np.ndarray) -> np.ndarray:
    """The (N, 3, 2) matrices F_k = factor^T [e1_k e2_k] for the (N, 3) unit rows of n.

    e1_k, e2_k (`_plane_basis`) span the plane orthogonal to n_k, and
    A = I - n n^T = E E^T, so an attitude draw x = factor d has the small-angle
    pointing-error angle sqrt(x^T A x) = |d F_k|, without the cancellation of
    |x|^2 - (x.n)^2. Each entry is an elementwise sum of three products, so a
    row's matrix does not depend on the other rows.
    """
    basis = np.stack(_plane_basis(n), axis=2)  # basis[k, m, j]: component m of e1_k (j = 0) or e2_k (j = 1)
    return (
        factor[0, :, None] * basis[:, None, 0, :]
        + factor[1, :, None] * basis[:, None, 1, :]
        + factor[2, :, None] * basis[:, None, 2, :]
    )


def hoyt_params(cov: JitterCovariance, u_hat: np.ndarray) -> HoytParams:
    """Pointing-error law for a given jitter covariance and one pointing direction.

    The one-direction case of `hoyt_eigenvalues`: lam1, lam2 are the two
    nonzero eigenvalues of Sigma^1/2 A Sigma^1/2, and their sum equals
    Tr(Sigma A).
    """
    lam1, lam2 = hoyt_eigenvalues(cov, np.asarray(u_hat, dtype=float)[None, :])[0]
    return HoytParams(lam1=float(lam1), lam2=float(lam2))


def pointing_weight_matrix(cov: JitterCovariance) -> np.ndarray:
    """Weights D = Tr(Sigma) I - Sigma, so u^T D u / |u|^2 = Tr(Sigma A_u) = E[theta_p^2].

    Each diagonal entry is the sum of the other two variances, which is exact
    for a diagonal Sigma.
    """
    sigma = cov.matrix
    var = np.diag(sigma)
    weights = -sigma
    np.fill_diagonal(weights, var[[1, 2, 0]] + var[[2, 0, 1]])
    return weights


def weighted_pointing_norm(u_hat: np.ndarray, d_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """sqrt(u^T D u) for each row u of u_hat, and D u per row."""
    d_u = u_hat @ d_mat.T
    return np.sqrt(np.einsum("ki,ki->k", u_hat, d_u)), d_u


def hoyt_pdf(theta, params: HoytParams):
    """Density of the pointing-error angle at theta >= 0 (1/radians).

    Collapses to the folded-normal limit when the minor axis vanishes
    (q below 1e-4), with a DegenerateHoytWarning.
    """
    th = np.asarray(theta, dtype=float)
    if np.any(th < 0.0):
        raise ValueError("theta must be nonnegative")
    if params.omega == 0.0:
        raise ValueError("degenerate zero-jitter law has no density")
    q, omega = params.q, params.omega
    if q < _Q_DEGENERATE:
        warnings.warn(
            "minor jitter axis is numerically zero; using the folded-normal limit",
            DegenerateHoytWarning,
            stacklevel=2,
        )
        lam1 = params.lam1
        out = np.sqrt(2.0 / (math.pi * lam1)) * np.exp(-th * th / (2.0 * lam1))
        return float(out) if np.ndim(theta) == 0 else out
    from scipy.special import i0e  # not at module top: importing it costs tens of ms and a few MB

    q_sq = q * q
    # exp(-c) I0(d) with c - d = theta^2 (1+q^2) / (2 omega) keeps both factors bounded.
    bessel_arg = (1.0 - q_sq * q_sq) * th * th / (4.0 * q_sq * omega)
    out = (
        ((1.0 + q_sq) * th / (q * omega))
        * np.exp(-th * th * (1.0 + q_sq) / (2.0 * omega))
        * i0e(bessel_arg)
    )
    return float(out) if np.ndim(theta) == 0 else out


def hoyt_cdf(theta, params: HoytParams):
    """CDF of the pointing-error angle by trapezoidal quadrature of the pdf on _CDF_GRID_POINTS points."""
    th = np.asarray(theta, dtype=float)
    upper = max(float(np.max(th)) if th.size else 0.0, 10.0 * math.sqrt(params.omega))
    grid = np.linspace(0.0, upper * 1.000001, _CDF_GRID_POINTS)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", DegenerateHoytWarning)
        pdf = hoyt_pdf(grid, params)
    cum = np.concatenate(([0.0], np.cumsum((pdf[1:] + pdf[:-1]) * 0.5 * np.diff(grid))))
    out = np.interp(th, grid, np.clip(cum, 0.0, 1.0))
    return float(out) if np.ndim(theta) == 0 else out


def psd_factor(mat: np.ndarray) -> np.ndarray:
    """A factor F with F F^T = mat for a symmetric PSD matrix: its Cholesky factor, or
    its symmetric root where Cholesky fails on a singular (or, by rounding, indefinite) one."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        evals, vecs = np.linalg.eigh(mat)
        return (vecs * np.sqrt(np.maximum(evals, 0.0))) @ vecs.T


def sample_error_angles(
    cov: JitterCovariance,
    u_hat: np.ndarray,
    n: int,
    seed=0,
    mode: str = "exact",
) -> np.ndarray:
    """Monte Carlo draws of the pointing-error angle theta_p (radians).

    ``exact`` applies the full perturbation rotation to the pointing vector and
    measures the resulting angle; ``small_angle`` evaluates sqrt(x^T A x) as the
    length |d F| of the normals d projected onto the error plane
    (`_error_plane_factor`). The Monte Carlo capacity draws the same law from
    two error-plane normals w as sqrt(lam1 w1^2 + lam2 w2^2), with lam1, lam2
    from `hoyt_eigenvalues`. Both modes here draw three attitude normals per
    sample, so the two are paired sample by sample. Deterministic for a given
    seed (an int or a numpy Generator).
    """
    if n < 1:
        raise ValueError("need at least one sample")
    if mode not in ("exact", "small_angle"):
        raise ValueError(f"unknown mode {mode!r}")
    u = np.asarray(u_hat, dtype=float)
    z_sq = float(np.dot(u, u))
    if z_sq == 0.0:
        raise DegenerateGeometryError("pointing vector has zero norm")
    rng = np.random.default_rng(seed)
    d = rng.standard_normal((n, 3))
    factor = psd_factor(cov.matrix)

    if mode == "small_angle":
        y = d @ _error_plane_factor(factor, u[None, :] / math.sqrt(z_sq))[0]
        return np.hypot(y[:, 0], y[:, 1])

    x = d @ factor.T

    ca, sa = np.cos(x[:, 0]), np.sin(x[:, 0])
    cb, sb = np.cos(x[:, 1]), np.sin(x[:, 1])
    cg, sg = np.cos(x[:, 2]), np.sin(x[:, 2])
    # Rows of R_x(alpha) R_y(beta) R_z(gamma), vectorized over samples.
    r00, r01, r02 = cb * cg, -cb * sg, sb
    r10, r11, r12 = ca * sg + sa * sb * cg, ca * cg - sa * sb * sg, -sa * cb
    r20, r21, r22 = sa * sg - ca * sb * cg, sa * cg + ca * sb * sg, ca * cb
    ux = r00 * u[0] + r01 * u[1] + r02 * u[2]
    uy = r10 * u[0] + r11 * u[1] + r12 * u[2]
    uz = r20 * u[0] + r21 * u[1] + r22 * u[2]
    cx = uy * u[2] - uz * u[1]
    cy = uz * u[0] - ux * u[2]
    cz = ux * u[1] - uy * u[0]
    cross = np.sqrt(cx * cx + cy * cy + cz * cz)
    dot = ux * u[0] + uy * u[1] + uz * u[2]
    return np.arctan2(cross, dot)


def reduce_jitter_dof(cov: JitterCovariance, dof: int) -> JitterCovariance:
    """Map a diagonal 3-DoF jitter model onto a 1- or 2-DoF surrogate.

    The 2-DoF surrogate pools roll and pitch; the 1-DoF surrogate pools all
    three axes. Total jitter power Tr(Sigma) is preserved in every mode.
    """
    if dof == 3:
        return cov
    if dof not in (1, 2):
        raise ValueError("dof must be 1, 2, or 3")
    if not cov.is_diagonal:
        raise UnsupportedReductionError("DoF reduction is defined for uncorrelated jitter only")
    sa, sb, sg = cov.sigma
    if dof == 2:
        pooled = math.sqrt((sa * sa + sb * sb) / 2.0)
        return JitterCovariance((pooled, pooled, sg))
    iso = math.sqrt((sa * sa + sb * sb + sg * sg) / 3.0)
    return JitterCovariance((iso, iso, iso))
