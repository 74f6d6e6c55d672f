"""FSO link budget: visibility-driven attenuation, Gaussian-beam pointing loss,
log-normal scintillation, and the link's instantaneous / ergodic capacity.

The electrical SNR argument is Gamma = e P^2 / (2 pi sigma^2) with received
power P = h_a h_l h_p R P_T; capacity is 0.5 log2(1 + Gamma) per channel use.

The ergodic capacity of one slot is one Gauss-Hermite sum whose rules are
built once per node count and cached read-only; `log_bound_params` takes the
anchors of all slots as one array.

The Monte Carlo oracle `mc_ergodic_capacity` estimates one slot.
`mc_capacities` estimates every slot of a plan, bit-identically to calling it
slot by slot on one stream: one worker thread draws the seeded normals ahead
while the calling thread reduces each slot in place, and both share one copy
of the per-sample arithmetic.
"""
from __future__ import annotations

import functools
import math
import warnings
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometryError, NearFieldWarning, slot_suffix
from .jitter import HoytParams, JitterCovariance, _covariance_factor, _small_angle_error, sample_error_angles

_REFERENCE_WAVELENGTH = 550e-9  # meters, anchor of the visibility scattering law
_GAMMA_FLOOR = 1e-300  # keeps log(Gamma) finite on pathological inputs


@dataclass(frozen=True)
class LinkParams:
    """All link-budget constants, SI units."""

    transmit_power: float = 10e-3  # W
    noise_std: float = 1e-5  # A, shot-noise standard deviation
    responsivity: float = 0.5  # A/W
    aperture: float = 0.20  # m, receiver aperture diameter
    sigma_div: float = 1.5e-3  # rad, half the 1-sigma divergence angle
    sigma_i: float = 0.3  # log-amplitude std of scintillation
    visibility: float = 3e3  # m
    wavelength: float = 1550e-9  # m

    def __post_init__(self):
        positive = {
            "transmit_power": self.transmit_power,
            "noise_std": self.noise_std,
            "responsivity": self.responsivity,
            "aperture": self.aperture,
            "sigma_div": self.sigma_div,
            "visibility": self.visibility,
            "wavelength": self.wavelength,
        }
        for name, value in positive.items():
            if value <= 0.0:
                raise ValueError(f"{name} must be positive, got {value}")
        if self.sigma_i < 0.0:
            raise ValueError("sigma_i must be nonnegative")

    @property
    def sigma_b(self) -> float:
        """Atmospheric attenuation coefficient, 1/m."""
        return attenuation_coefficient(self.visibility, self.wavelength)


class LinkBudget(NamedTuple):
    """One realized channel state and its SNR argument."""

    h_a: float
    h_l: float
    h_p: float
    z: float
    gamma: float


def link_budget(h_a: float, theta_p: float, z: float, link: "LinkParams") -> LinkBudget:
    """Assemble the multiplicative channel state at one geometry."""
    h_l = atmospheric_loss(link.sigma_b, z)
    h_p = pointing_loss(theta_p, z, link)
    return LinkBudget(h_a=h_a, h_l=h_l, h_p=h_p, z=z, gamma=gamma_from_gains(h_a, h_l, h_p, link))


class MCEstimate(NamedTuple):
    """Monte Carlo mean with its standard error and sample count."""

    value: float
    stderr: float
    n: int


def attenuation_coefficient(visibility: float, wavelength: float) -> float:
    """Empirical visibility-to-attenuation law, 1/m.

    The scattering-size exponent switches at 6 km and 50 km of visibility.
    """
    if visibility <= 0.0:
        raise ValueError("visibility must be positive")
    v_km = visibility / 1e3
    if v_km >= 50.0:
        q_sca = 1.6
    elif v_km >= 6.0:
        q_sca = 1.3
    else:
        q_sca = 0.585 * v_km ** (1.0 / 3.0)
    return (3.91 / visibility) * (wavelength / _REFERENCE_WAVELENGTH) ** (-q_sca)


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
    out = _beam_gain(th.copy(), z, link)
    return float(out) if np.ndim(theta_p) == 0 else out


def gamma_from_gains(h_a, h_l, h_p, link: LinkParams):
    """Electrical SNR argument e P^2 / (2 pi sigma^2)."""
    shape = np.broadcast(h_a, h_l, h_p).shape
    out = _gamma_from_gains(h_a, h_l, h_p, link, np.empty(shape), np.empty(shape))
    return float(out) if out.ndim == 0 else out


def instantaneous_capacity(h_a, h_l, h_p, link: LinkParams):
    """Capacity 0.5 log2(1 + Gamma) for one channel realization, bits/channel use."""
    out = _capacity_samples(np.asarray(gamma_from_gains(h_a, h_l, h_p, link), dtype=float))
    return float(out) if out.ndim == 0 else out


def _beam_gain(theta_p: np.ndarray, z: float, link: LinkParams) -> np.ndarray:
    """A0 exp(-theta_p^2 / (2 sigma_div^2)) of each angle, in place over ``theta_p``."""
    h_p = np.multiply(theta_p, theta_p, out=theta_p)
    np.negative(h_p, out=h_p)
    np.divide(h_p, 2.0 * link.sigma_div**2, out=h_p)
    np.exp(h_p, out=h_p)
    return np.multiply(max_pointing_gain(z, link), h_p, out=h_p)


def _gamma_from_gains(h_a, h_l, h_p, link: LinkParams, p_rx: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """e P^2 / (2 pi sigma^2) with P = h_a h_l h_p R P_T, into ``gamma``.

    ``p_rx`` holds P on the way and may be ``h_a``'s buffer; ``gamma`` may be
    any gain's buffer other than ``p_rx``.
    """
    np.multiply(h_a, h_l, out=p_rx)
    np.multiply(p_rx, h_p, out=p_rx)
    np.multiply(p_rx, link.responsivity, out=p_rx)
    np.multiply(p_rx, link.transmit_power, out=p_rx)
    np.multiply(math.e, p_rx, out=gamma)
    np.multiply(gamma, p_rx, out=gamma)
    return np.divide(gamma, 2.0 * math.pi * link.noise_std**2, out=gamma)


class LogGammaTerms(NamedTuple):
    """Additive decomposition of E[log Gamma] (natural log)."""

    base: float  # log(e R^2 P_T^2 / (2 pi sigma^2))
    scintillation: float  # 2 E[log h_a] = -4 sigma_i^2
    atmospheric: float  # 2 log h_l = -2 sigma_b z
    pointing: float  # 2 E[log h_p]


def capacity_offset(link: LinkParams) -> float:
    """Distance- and jitter-independent constant of E[log Gamma].

    log(e R^2 P_T^2 a^4 / (8 pi sigma^2 sigma_div^2)) - 4 sigma_i^2.
    """
    return (
        math.log(
            math.e
            * link.responsivity**2
            * link.transmit_power**2
            * link.aperture**4
            / (8.0 * math.pi * link.noise_std**2 * link.sigma_div**2)
        )
        - 4.0 * link.sigma_i**2
    )


def log_gamma_terms(link: LinkParams, z: float, hoyt: HoytParams) -> LogGammaTerms:
    """The four independent additive components of E[log Gamma]."""
    base = math.log(
        math.e * link.responsivity**2 * link.transmit_power**2 / (2.0 * math.pi * link.noise_std**2)
    )
    pointing = (
        2.0 * math.log(link.aperture**2 / (2.0 * link.sigma_div))
        - 2.0 * math.log(z)
        - hoyt.omega / link.sigma_div**2
    )
    return LogGammaTerms(
        base=base,
        scintillation=-4.0 * link.sigma_i**2,
        atmospheric=-2.0 * link.sigma_b * z,
        pointing=pointing,
    )


def expected_log_gamma(link: LinkParams, z: float, hoyt: HoytParams) -> float:
    """Exact E[log Gamma] under the channel model, nats.

    Equals capacity_offset(link) - 2 sigma_b z - 2 log z - omega / sigma_div^2,
    with omega the mean-square pointing-error angle.
    """
    return (
        capacity_offset(link)
        - 2.0 * link.sigma_b * z
        - 2.0 * math.log(z)
        - hoyt.omega / link.sigma_div**2
    )


def log_bound_params(gamma_l):
    """Slope and intercept of the log-domain tangent bound at the anchor gamma_l.

    log(1 + Gamma) >= grad * log(Gamma) + delta for every Gamma > 0, with
    equality at Gamma = gamma_l. A scalar anchor gives two floats; an (N,)
    array of per-slot anchors gives two (N,) arrays.
    """
    g = np.asarray(gamma_l, dtype=float)
    if np.any(g <= 0.0):
        raise ValueError(f"anchor must be positive{slot_suffix(g <= 0.0)}")
    grad = g / (1.0 + g)
    delta = np.log1p(g) - grad * np.log(g)
    if g.ndim == 0:
        return float(grad), float(delta)
    return grad, delta


def ergodic_capacity(e_log_gamma: float, gamma_l: float) -> float:
    """Anchored lower bound on the ergodic capacity, bits/channel use.

    (1 / (2 log 2)) * (grad * E[log Gamma] + delta); tight when the anchor is
    exp(E[log Gamma]).
    """
    grad, delta = log_bound_params(gamma_l)
    return (grad * e_log_gamma + delta) / (2.0 * math.log(2.0))


def mc_log_gamma(
    link: LinkParams,
    z: float,
    cov: JitterCovariance,
    u_hat: np.ndarray,
    n: int = 10**6,
    seed=0,
    mode: str = "small_angle",
) -> MCEstimate:
    """Monte Carlo estimate of E[log Gamma], the oracle for expected_log_gamma."""
    gammas = _sample_gamma(link, z, cov, u_hat, n, seed, mode)
    logs = np.log(np.maximum(gammas, _GAMMA_FLOOR))
    return MCEstimate(float(np.mean(logs)), float(np.std(logs) / math.sqrt(n)), n)


def mc_ergodic_capacity(
    link: LinkParams,
    z: float,
    cov: JitterCovariance,
    u_hat: np.ndarray,
    n: int = 10**6,
    seed=0,
    mode: str = "small_angle",
) -> MCEstimate:
    """Monte Carlo estimate of the true ergodic capacity E[0.5 log2(1 + Gamma)].

    The oracle against which every closed form in this module is checked.
    """
    caps = _capacity_samples(_sample_gamma(link, z, cov, u_hat, n, seed, mode))
    return MCEstimate(float(np.mean(caps)), float(np.std(caps) / math.sqrt(n)), n)


def mc_capacities(
    link: LinkParams,
    z: np.ndarray,
    cov: JitterCovariance,
    u_hat: np.ndarray,
    n: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Monte Carlo ergodic capacity of every slot of a plan, bits/channel use, shape (N,).

    ``z`` holds the N propagation distances and ``u_hat`` the (N, 3) pointing
    vectors. Slot k's value is bit-identical to
    ``mc_ergodic_capacity(link, z[k], cov, u_hat[k], n, rng).value`` called
    for k = 0, 1, ... in turn, and ``rng`` ends in the same state.

    Every slot is checked before anything is drawn. One worker thread fills
    each slot's (n, 3) jitter normals, then its n scintillation normals, into a
    ring of three buffer pairs, at most two slots ahead, while the calling
    thread reduces the slot in place. On a raise the pending draws are
    cancelled and the worker is joined before the error propagates.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    z = np.asarray(z, dtype=float)
    u = np.asarray(u_hat, dtype=float)
    z_sq = np.array([np.dot(uk, uk) for uk in u])  # per row, as the per-slot sampler computes it
    if np.any(z_sq == 0.0):
        raise DegenerateGeometryError(f"pointing vector has zero norm{slot_suffix(z_sq == 0.0)}")
    if np.any(z <= 0.0):
        raise DegenerateGeometryError(f"propagation distance must be positive{slot_suffix(z <= 0.0)}")

    slots = len(z)
    factor_t = _covariance_factor(cov).T
    x, xu, work = np.empty((n, 3)), np.empty(n), np.empty(n)
    ring = [(np.empty((n, 3)), np.empty(n)) for _ in range(min(3, slots))]
    capacity = np.empty(slots)

    def draw(d, e):
        rng.standard_normal(out=d)
        rng.standard_normal(out=e)
        return d, e

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fsotraj-mc-draw")
    try:
        pending = deque(pool.submit(draw, d, e) for d, e in ring)
        for k in range(slots):
            d, e = pending.popleft().result()
            np.matmul(d, factor_t, out=x)
            theta_p = _small_angle_error(x, u[k], z_sq[k], xu, work)
            capacity[k] = np.mean(_capacity_samples(_gamma_from_draws(link, z[k], theta_p, e)))
            if k + len(ring) < slots:
                pending.append(pool.submit(draw, d, e))
    finally:
        pool.shutdown(wait=True, cancel_futures=True)
    return capacity


def _sample_gamma(link, z, cov, u_hat, n, seed, mode) -> np.ndarray:
    if n < 1:
        raise ValueError("need at least one sample")
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    theta_p = sample_error_angles(cov, u_hat, n, seed=rng, mode=mode)
    return _gamma_from_draws(link, z, theta_p, rng.standard_normal(n))


def _gamma_from_draws(link: LinkParams, z: float, theta_p: np.ndarray, e: np.ndarray) -> np.ndarray:
    """Gamma of each sample from its pointing-error angle and scintillation normal, in place.

    log h_a = -2 sigma_i^2 + 2 sigma_i e ~ N(-2 sigma_i^2, 4 sigma_i^2), which
    makes E[h_a] = 1; h_p is `pointing_loss` without its near-field warning,
    and Gamma is `gamma_from_gains`, both through the same in-place kernels.
    The result overwrites ``theta_p``; ``e`` is used as work space.
    """
    h_a = np.multiply(2.0 * link.sigma_i, e, out=e)
    np.add(-2.0 * link.sigma_i**2, h_a, out=h_a)
    np.exp(h_a, out=h_a)
    h_p = _beam_gain(theta_p, z, link)
    return _gamma_from_gains(h_a, atmospheric_loss(link.sigma_b, z), h_p, link, h_a, h_p)


def _capacity_samples(gamma: np.ndarray) -> np.ndarray:
    """0.5 log2(1 + Gamma) of each sample, in place."""
    np.add(1.0, gamma, out=gamma)
    np.log2(gamma, out=gamma)
    return np.multiply(0.5, gamma, out=gamma)


def quadrature_ergodic_capacity(
    link: LinkParams,
    z: float,
    hoyt: HoytParams,
    nodes_scint: int = 48,
    nodes_jitter: int = 32,
) -> float:
    """Deterministic evaluation of the true ergodic capacity by Gauss-Hermite quadrature.

    Integrates 0.5 log2(1 + exp(t)) over t = const + 2 log h_a - theta_p^2 /
    sigma_div^2, with the scintillation and the two pointing-error axes each
    carrying one Hermite rule. The jitter axes enter only through x^2, so
    each axis uses the rule folded onto its nonnegative nodes.
    """
    const = (
        math.log(
            math.e * link.responsivity**2 * link.transmit_power**2 / (2.0 * math.pi * link.noise_std**2)
        )
        - 2.0 * link.sigma_b * z
        + 2.0 * math.log(link.aperture**2 / (2.0 * z * link.sigma_div))
    )
    x_s, w_s = _hermite_rule(nodes_scint)
    x_sq, w_j = _folded_hermite_rule(nodes_jitter)

    scint = -4.0 * link.sigma_i**2 + 4.0 * link.sigma_i * x_s  # 2 log h_a at the nodes
    theta_sq = hoyt.lam1 * x_sq[:, None] + hoyt.lam2 * x_sq[None, :]
    jitter = -(theta_sq / link.sigma_div**2).ravel()
    w_jit = (w_j[:, None] * w_j[None, :]).ravel()

    t = const + scint[:, None] + jitter[None, :]
    cap = 0.5 * np.logaddexp(0.0, t) / math.log(2.0)
    return float(w_s @ cap @ w_jit)


@functools.lru_cache(maxsize=None)
def _hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """Gauss-Hermite nodes and weights for the standard normal density, built once per count.

    The cached arrays are read-only.
    """
    x, w = np.polynomial.hermite_e.hermegauss(nodes)
    w = w / math.sqrt(2.0 * math.pi)
    x.flags.writeable = False
    w.flags.writeable = False
    return x, w


@functools.lru_cache(maxsize=None)
def _folded_hermite_rule(nodes: int) -> tuple[np.ndarray, np.ndarray]:
    """The Hermite rule for an even integrand, as (x^2, weight) on the nonnegative nodes.

    The nodes come in +-x pairs of equal weight, so each pair folds into one
    node carrying twice the weight; a zero node (odd counts) keeps its own.
    """
    x, w = _hermite_rule(nodes)
    half = nodes // 2
    x_sq = np.square(x[half:])
    w_fold = w[half:].copy()
    w_fold[nodes % 2 :] *= 2.0
    x_sq.flags.writeable = False
    w_fold.flags.writeable = False
    return x_sq, w_fold
