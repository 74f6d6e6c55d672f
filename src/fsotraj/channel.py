"""FSO link budget: visibility-driven attenuation, Gaussian-beam pointing loss,
log-normal scintillation, and the link's instantaneous / ergodic capacity.

The electrical SNR argument is Gamma = e P^2 / (2 pi sigma^2) with received
power P = h_a h_l h_p R P_T; capacity is 0.5 log2(1 + Gamma) per channel use.

The ergodic capacity of a slot is one Gauss-Hermite sum over a grid built
once per node count and cached read-only, less the nodes whose weight is
negligible where the integrand falls. `quadrature_capacities` takes every
slot of a plan in one call, in fixed chunks of slots through one buffer;
`quadrature_ergodic_capacity` is its one-slot call. The integrand
log(1 + exp(t)) is evaluated in factored form: exp(t) is the product of one
exponential per scintillation node and one per node of each jitter axis,
leaving one log1p per grid node. `log_bound_params` takes the anchors of all
slots as one array.

Every Monte Carlo path works in the log domain. log Gamma is affine in the
scintillation normal e and in theta_p^2, so a sample's log-SNR is
t = c0 + 4 sigma_i e - |w b|^2, where w holds the sample's two error-plane
normals and b = (sqrt(lam1), sqrt(lam2)) / sigma_div holds the square roots
of the slot's Hoyt semi-axis variances from `hoyt_eigenvalues`, the ones the
quadrature integrates: |w b|^2 = (lam1 w1^2 + lam2 w2^2) / sigma_div^2 has the
Hoyt law of theta_p^2 / sigma_div^2. A sample draws three normals; its
capacity is f = log1p(exp(t)) / (2 log 2). `_slot_constants` builds c0 and b
for every slot.

A slot's estimate is not the plain mean of f. Its log-SNR has the closed-form
mean E[t] = c0 - (lam1 + lam2) / sigma_div^2 (`_mean_log_snr`, equal to
`expected_log_gamma`), and f is nearly linear in t, so the control variate
f - beta (t - E[t]) removes most of f's variance. beta is cross-fitted
(`_cross_fitted_residuals`): fitted on each half of the slot's samples and
applied to the other half, which keeps the estimate unbiased; a slope fitted
on the samples it corrects would bias every slot by O(1/n). The estimate is
the mean of these residuals and its standard error their std / sqrt(n).

The kernel works on chunks of slots, shape (c, n): `_log_snr`, the per-row
overflow branch of `_log1p_exp`, `_cross_fitted_residuals` and the mean run
once per chunk, and every step is row by row, so a slot's value does not
depend on the chunk that held it. `mc_capacities` estimates every slot of a
plan, each slot on its own child stream spawned from the seed: the calling
thread and one worker thread claim chunks of about _CHUNK_SAMPLES samples in
turn, draw each slot of a chunk into its rows of their own buffers (3n
doubles per slot), and reduce the chunk. The oracle `mc_ergodic_capacity`
runs the same kernel on a one-slot chunk, so slot k of a plan is
bit-identical to the oracle on the k-th child stream. `mc_log_gamma` keeps
the plain mean of t.
"""
from __future__ import annotations

import functools
import itertools
import math
import threading
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DegenerateGeometryError, NearFieldWarning, slot_suffix
from .jitter import HoytParams, JitterCovariance, hoyt_eigenvalues

_REFERENCE_WAVELENGTH = 550e-9  # meters, anchor of the visibility scattering law
_EXP_SAFE = 709.0  # largest log-SNR whose exp stays finite with room to spare
_WEIGHT_FLOOR = 1e-18  # share of the unit weight at or below which a falling quadrature node is dropped
_QUADRATURE_CHUNK = 8  # slots per chunk of quadrature_capacities
_HALF_LOG2E = 0.5 / math.log(2.0)  # 0.5 log2(x) = _HALF_LOG2E log(x)
_CHUNK_SAMPLES = 16_000  # Monte Carlo samples per chunk of slots in mc_capacities


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
    out = max_pointing_gain(z, link) * np.exp(-th * th / (2.0 * link.sigma_div**2))
    return float(out) if np.ndim(theta_p) == 0 else out


def gamma_from_gains(h_a, h_l, h_p, link: LinkParams):
    """Electrical SNR argument e P^2 / (2 pi sigma^2)."""
    p_rx = np.asarray(h_a, dtype=float) * h_l * h_p * link.responsivity * link.transmit_power
    out = math.e * p_rx * p_rx / (2.0 * math.pi * link.noise_std**2)
    return float(out) if np.ndim(out) == 0 else out


def instantaneous_capacity(h_a, h_l, h_p, link: LinkParams):
    """Capacity 0.5 log2(1 + Gamma) for one channel realization, bits/channel use.

    Evaluated as log1p(Gamma) / (2 log 2), which keeps full relative precision
    for small Gamma, where rounding 1 + Gamma would not.
    """
    out = _HALF_LOG2E * np.log1p(np.asarray(gamma_from_gains(h_a, h_l, h_p, link), dtype=float))
    return float(out) if np.ndim(out) == 0 else out


class LogGammaTerms(NamedTuple):
    """Additive decomposition of E[log Gamma] (natural log)."""

    base: float  # log(e R^2 P_T^2 / (2 pi sigma^2))
    scintillation: float  # 2 E[log h_a] = -4 sigma_i^2
    atmospheric: float  # 2 log h_l = -2 sigma_b z
    pointing: float  # 2 E[log h_p]


def _log_snr_base(link: LinkParams) -> float:
    """log(e R^2 P_T^2 / (2 pi sigma^2)), summed in logs.

    Every log is of a positive finite input, so the constant stays finite for
    any link; the product form overflows in P_T^2 above about 1.3e154 W.
    """
    return 2.0 * (
        math.log(link.transmit_power) + math.log(link.responsivity) - math.log(link.noise_std)
    ) + math.log(math.e / (2.0 * math.pi))


def capacity_offset(link: LinkParams) -> float:
    """Distance- and jitter-independent constant of E[log Gamma].

    log(e R^2 P_T^2 a^4 / (8 pi sigma^2 sigma_div^2)) - 4 sigma_i^2.
    """
    return _log_snr_base(link) + 2.0 * math.log(link.aperture**2 / (2.0 * link.sigma_div)) - 4.0 * link.sigma_i**2


def log_gamma_terms(link: LinkParams, z: float, hoyt: HoytParams) -> LogGammaTerms:
    """The four independent additive components of E[log Gamma]."""
    base = _log_snr_base(link)
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
) -> MCEstimate:
    """Monte Carlo estimate of E[log Gamma], the oracle for expected_log_gamma.

    The mean of the per-sample log-SNR t that `mc_ergodic_capacity` draws from
    the same seed; finite for every link, with no floor on Gamma.
    """
    t, _, _ = _sample_log_snr(link, z, cov, u_hat, n, seed)
    return MCEstimate(float(np.mean(t)), float(np.std(t) / math.sqrt(n)), n)


def mc_ergodic_capacity(
    link: LinkParams,
    z: float,
    cov: JitterCovariance,
    u_hat: np.ndarray,
    n: int = 10**6,
    seed=0,
) -> MCEstimate:
    """Monte Carlo estimate of the true ergodic capacity E[0.5 log2(1 + Gamma)].

    The oracle against which every closed form in this module is checked. It
    draws n (2,) error-plane normals and then n scintillation normals from the
    seed's stream, three normals per sample, and reduces them as a one-slot
    chunk of `mc_capacities`, with the same kernel: the error-plane normals are
    scaled by the square roots of the slot's Hoyt semi-axis variances, and each
    sample's capacity is f = log1p(exp(t)) / (2 log 2). The value is the mean
    of the cross-fitted control-variate residuals r = f - beta (t - E[t]) of
    `_cross_fitted_residuals`, and ``stderr`` is std(r) / sqrt(n), the standard
    error of that mean. It is unbiased for every n; n = 1 gives the plain
    sample and stderr 0.
    """
    t, t_mean, spent = _sample_log_snr(link, z, cov, u_hat, n, seed)
    r = _cross_fitted_residuals(t, t_mean, spent)
    return MCEstimate(
        float(np.mean(r, axis=1)[0] * _HALF_LOG2E), float(np.std(r) * _HALF_LOG2E / math.sqrt(n)), n
    )


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
    vectors. Slot k draws from its own child stream, the k-th of
    ``rng.spawn(N)``: its value is bit-identical to ``mc_ergodic_capacity(link,
    z[k], cov, u_hat[k], n, seed=rng.spawn(N)[k]).value``, whichever thread ran
    it and whichever chunk held it. ``rng`` keeps its bit stream; its
    ``seed_seq`` records N more spawned children.

    Every slot is checked, and its constants c0 and b built, before any child
    is spawned; ``z`` and ``u_hat`` must count the same slots. The slots then
    run in chunks of `_chunk_slots` (n) consecutive slots, which the calling
    thread and one worker thread claim from a shared counter. For each slot of
    its chunk a thread builds the slot's generator and draws the slot's n (2,)
    error-plane normals and n scintillation normals into the slot's rows of
    its two chunk buffers, 3n doubles per slot; it then runs `_log_snr`, the
    cross-fitted control variate of `_cross_fitted_residuals` and the mean
    once over the whole chunk. A raise in either thread stops both, and the
    worker is joined before the call returns or raises.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    c0, scale = _slot_constants(link, z, cov, u_hat)
    t_mean = _mean_log_snr(c0, scale)
    slots = len(c0)
    bits = rng.bit_generator
    children = bits.seed_seq.spawn(slots)  # rng.spawn's seeds; each generator is built by its thread
    chunk = _chunk_slots(n)
    capacity = np.empty(slots)
    claim, claim_lock, stop = itertools.count(0, chunk), threading.Lock(), threading.Event()

    def run_chunks():
        w_rows, e_rows = np.empty((chunk, n, 2)), np.empty((chunk, n))
        try:
            while not stop.is_set():
                with claim_lock:
                    lo = next(claim)
                if lo >= slots:
                    return
                hi = min(lo + chunk, slots)
                w, e = w_rows[: hi - lo], e_rows[: hi - lo]
                for i, child in enumerate(children[lo:hi]):
                    _draw_slot(np.random.Generator(type(bits)(child)), w[i], e[i])
                t = _log_snr(w, e, scale[lo:hi], c0[lo:hi], link.sigma_i)
                r = _cross_fitted_residuals(t, t_mean[lo:hi], w)
                capacity[lo:hi] = np.mean(r, axis=1) * _HALF_LOG2E
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fsotraj-mc")
    try:
        worker = pool.submit(run_chunks)
        run_chunks()
        worker.result()
    finally:
        pool.shutdown(wait=True)
    return capacity


def _slot_constants(link: LinkParams, z, cov: JitterCovariance, u_hat) -> tuple[np.ndarray, np.ndarray]:
    """The Monte Carlo kernel's constants of each slot: c0, shape (N,), and b, shape (N, 2).

    c0 = log(e R^2 P_T^2 / (2 pi sigma^2)) - 4 sigma_i^2 - 2 sigma_b z + 2 log A0(z)
    is the log-SNR of an on-axis sample with e = 0. b = (sqrt(lam1),
    sqrt(lam2)) / sigma_div, with (lam1, lam2) the slot's row of
    `hoyt_eigenvalues`, so two error-plane normals w give |w b|, the norm of
    their elementwise product, with the law of theta_p / sigma_div. A slot's
    constants come from its own row of `hoyt_eigenvalues` and one math.log, so
    they do not depend on the other slots. A scalar ``z`` with a (3,) ``u_hat``
    is one slot: c0 of shape (1,) and b of shape (1, 2).

    Raises ValueError when ``z`` and ``u_hat`` count different slots, and
    DegenerateGeometryError, naming the slot, for a zero pointing vector or a
    nonpositive distance.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u_hat, dtype=float)
    if z.shape != u.shape[:-1]:
        raise ValueError(f"got {z.size} distances and {u.size // 3} pointing vectors; need one of each per slot")
    z = z.ravel()
    lam = hoyt_eigenvalues(cov, u.reshape(-1, 3))
    if np.any(z <= 0.0):
        raise DegenerateGeometryError(f"propagation distance must be positive{slot_suffix(z <= 0.0)}")
    base = _log_snr_base(link) - 4.0 * link.sigma_i**2
    c0 = [base - 2.0 * link.sigma_b * zk + 2.0 * math.log(max_pointing_gain(zk, link)) for zk in z.tolist()]
    return np.array(c0), np.sqrt(lam) / link.sigma_div


def _mean_log_snr(c0, scale):
    """E[t] = c0 - (lam1 + lam2) / sigma_div^2 of each slot's `_log_snr` samples.

    The normals have zero mean and unit variance, so E[|w b|^2] is the sum of
    the squares of b. Equals `expected_log_gamma` of the slot.
    """
    return c0 - np.square(scale).sum(axis=-1)


def _chunk_slots(n: int) -> int:
    """Slots per chunk of `mc_capacities` at n samples per slot: 8 at 2,000.

    A chunk holds about _CHUNK_SAMPLES samples, so each thread's buffers stay
    near 384 kB whatever the plan's length.
    """
    return max(1, _CHUNK_SAMPLES // n)


def _sample_log_snr(link, z, cov, u_hat, n, seed) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One slot drawn from ``seed`` as `mc_capacities` draws a slot, run as a one-slot chunk.

    Returns its (1, n) log-SNR samples, their mean E[t] of shape (1,), and its
    spent (1, n, 2) error-plane normals, the work space of
    `_cross_fitted_residuals`.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    c0, scale = _slot_constants(link, z, cov, u_hat)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w, e = np.empty((1, n, 2)), np.empty((1, n))
    _draw_slot(rng, w[0], e[0])
    return _log_snr(w, e, scale, c0, link.sigma_i), _mean_log_snr(c0, scale), w


def _draw_slot(rng: np.random.Generator, w: np.ndarray, e: np.ndarray) -> None:
    """One slot's draws from its stream: n (2,) error-plane normals into ``w``, then n scintillation normals into ``e``."""
    rng.standard_normal(out=w)
    rng.standard_normal(out=e)


def _log_snr(w: np.ndarray, e: np.ndarray, scale: np.ndarray, c0: np.ndarray, sigma_i: float) -> np.ndarray:
    """Log-SNR t = c0 + 4 sigma_i e - |w b|^2 of each sample of a chunk, shape (c, n), in place over ``e``.

    ``w`` (c, n, 2) holds each slot's error-plane normals and ``e`` (c, n) its
    scintillation normals (log h_a = -2 sigma_i^2 + 2 sigma_i e, so
    E[h_a] = 1); ``scale`` (c, 2) and ``c0`` (c,) are the slots' b and c0 from
    `_slot_constants`: |w b|^2 has the law of theta_p^2 / sigma_div^2 =
    -2 log(h_p / A0). ``w`` is spent afterwards, free as work space.
    """
    np.multiply(w, scale[:, None, :], out=w)
    np.square(w, out=w)
    t = np.multiply(e, 4.0 * sigma_i, out=e)
    np.subtract(t, w[..., 0], out=t)
    np.subtract(t, w[..., 1], out=t)
    return np.add(t, c0[:, None], out=t)


def _cross_fitted_residuals(t: np.ndarray, t_mean: np.ndarray, spent: np.ndarray) -> np.ndarray:
    """Control-variate residuals r = f - beta (t - E[t]) of each slot of a chunk, nats, shape (c, n).

    ``t`` (c, n) holds each slot's log-SNR samples and ``t_mean`` (c,) their
    E[t] from `_mean_log_snr`. f = log(1 + exp(t)) is each sample's capacity
    in nats, and the control t - E[t] has the known mean zero. Each slot's
    samples split into the first n // 2 and the rest; beta is the
    least-squares slope of f on t fitted on one half and applied to the
    other, so no sample is corrected by a slope fitted on itself, and the
    mean of a row of r is an unbiased estimate of the slot's E[f] with
    standard error std(r) / sqrt(n). A half whose t has no spread fits
    beta = 0, and n = 1 gives r = f. Every step is row by row, so a slot's
    residuals do not depend on the other slots of its chunk. ``t`` is
    overwritten with t - E[t]; r is written, as a contiguous (c, n) array,
    over the first half of ``spent``, the chunk's contiguous (c, n, 2)
    error-plane normals that `_log_snr` has used.
    """
    f = _log1p_exp(t, spent.reshape(-1)[: t.size].reshape(t.shape))
    d = np.subtract(t, t_mean[:, None], out=t)
    h = d.shape[1] // 2
    if h == 0:
        return f
    beta_head, beta_tail = _slopes(f[:, :h], d[:, :h]), _slopes(f[:, h:], d[:, h:])
    d[:, :h] *= beta_tail[:, None]
    d[:, h:] *= beta_head[:, None]
    return np.subtract(f, d, out=f)


def _slopes(f: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Least-squares slope of each row of f on the same row of d, from sums; 0 where d has no spread."""
    m = d.shape[1]
    d_sum = d.sum(axis=1)
    sxx = np.vecdot(d, d) - d_sum * d_sum / m
    sxy = np.vecdot(f, d) - f.sum(axis=1) * d_sum / m
    return np.divide(sxy, sxx, out=np.zeros(len(d)), where=sxx > 0.0)


def _log1p_exp(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) of each sample of a chunk, into ``f``.

    A slot whose largest t exceeds _EXP_SAFE takes logaddexp(0, t) on its
    row, as the quadrature's rows do, so no sample overflows; the other rows
    keep one exp and one log1p.
    """
    big = t.max(axis=1) > _EXP_SAFE
    if not big.any():
        np.exp(t, out=f)
        return np.log1p(f, out=f)
    small = ~big[:, None]
    np.exp(t, out=f, where=small)
    np.log1p(f, out=f, where=small)
    return np.logaddexp(0.0, t, out=f, where=big[:, None])


def quadrature_ergodic_capacity(
    link: LinkParams,
    z: float,
    hoyt: HoytParams,
    nodes_scint: int = 48,
    nodes_jitter: int = 32,
) -> float:
    """Deterministic evaluation of the true ergodic capacity by Gauss-Hermite quadrature.

    The one-slot call of `quadrature_capacities`, bit-identical to the slot's
    value in a plan.
    """
    return float(quadrature_capacities(link, [z], [[hoyt.lam1, hoyt.lam2]], nodes_scint, nodes_jitter)[0])


def quadrature_capacities(link: LinkParams, z, lam, nodes_scint: int = 48, nodes_jitter: int = 32) -> np.ndarray:
    """Ergodic capacity of every slot of a plan by Gauss-Hermite quadrature, bits/channel use, shape (N,).

    ``z`` holds the N propagation distances and ``lam`` the (N, 2) Hoyt
    semi-axis variances of `hoyt_eigenvalues`. Each slot integrates
    0.5 log2(1 + exp(t)) over t = const + 2 log h_a - theta_p^2 / sigma_div^2,
    with the scintillation and the two pointing-error axes each carrying one
    Hermite rule. The jitter axes enter only through x^2, so each axis uses
    the rule folded onto its nonnegative nodes. The grid drops the nodes
    whose weight is at most _WEIGHT_FLOOR where the integrand falls
    (`_pruned_rules`): 42 of 48 rows and 171 of 256 pairs at the default
    counts, 7,182 of 12,288 nodes, dropping under 1e-17 of the weight.

    exp(t) factors over the three rules into exp(const + 2 log h_a) times
    exp(-lam1 x_i^2 / sigma_div^2) times exp(-lam2 x_j^2 / sigma_div^2), so a
    slot costs one exponential per rule node and one log1p per grid node. The
    slots run in chunks of _QUADRATURE_CHUNK through one (chunk, rows, pairs)
    buffer, reduced row by row with `np.vecdot`, jitter pairs first, so a
    slot's value does not depend on the chunk that held it. A (slot, row)
    whose log-SNR exceeds _EXP_SAFE, which no physical link reaches, takes
    logaddexp(0, t) instead.

    Raises ValueError when ``z`` and ``lam`` count different slots.
    """
    z = np.asarray(z, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if z.ndim != 1 or lam.shape != (len(z), 2):
        raise ValueError(f"got {z.size} distances and {lam.size // 2} eigenvalue pairs; need one of each per slot")
    x_s, w_s, x_sq, pair_i, pair_j, w_pair = _pruned_rules(nodes_scint, nodes_jitter)
    base = _log_snr_base(link)
    const = np.array(
        [
            base - 2.0 * link.sigma_b * zk + 2.0 * math.log(link.aperture**2 / (2.0 * zk * link.sigma_div))
            for zk in z.tolist()
        ]
    )
    scint = -4.0 * link.sigma_i**2 + 4.0 * link.sigma_i * x_s  # 2 log h_a at the nodes
    capacity = np.empty(len(z))
    buffer = np.empty((_QUADRATURE_CHUNK, len(x_s), len(w_pair)))
    for lo in range(0, len(z), _QUADRATURE_CHUNK):
        hi = min(lo + _QUADRATURE_CHUNK, len(z))
        row = const[lo:hi, None] + scint
        axis1 = -(lam[lo:hi, 0:1] * x_sq / link.sigma_div**2)
        axis2 = -(lam[lo:hi, 1:2] * x_sq / link.sigma_div**2)
        jitter = np.exp(axis1)[:, pair_i] * np.exp(axis2)[:, pair_j]  # h_p^2 / A0^2 at the pairs
        cap = np.einsum("kr,kp->krp", np.exp(np.minimum(row, _EXP_SAFE)), jitter, out=buffer[: hi - lo])
        np.log1p(cap, out=cap)
        big = row > _EXP_SAFE
        if big.any():
            k, r = np.nonzero(big)
            cap[k, r] = np.logaddexp(0.0, row[k, r, None] + (axis1[k][:, pair_i] + axis2[k][:, pair_j]))
        capacity[lo:hi] = np.vecdot(np.vecdot(cap, w_pair), w_s)
    return capacity * _HALF_LOG2E


@functools.lru_cache(maxsize=None)
def _pruned_rules(nodes_scint: int, nodes_jitter: int) -> tuple[np.ndarray, ...]:
    """The quadrature grid without its negligible nodes, built once per pair of counts.

    The integrand falls as either jitter node moves out and as the
    scintillation node moves below zero, so a node there contributes at most
    its weight times the integrand at a kept node: every jitter pair and every
    scintillation node below zero whose weight is at most _WEIGHT_FLOOR is
    dropped. Above zero the integrand grows like exp(4 sigma_i x) on a faint
    link, where the tail's small weights still count (dropping them moves a
    1e-12 W link's capacity by 1.5e-14 relative), so those nodes stay.

    Returns the kept scintillation nodes and weights, the folded jitter rule's
    x^2, and the kept jitter pairs as two index arrays into it with their
    product weights, in row-major order of the full pair grid. The cached
    arrays are read-only.
    """
    x_s, w_s = _hermite_rule(nodes_scint)
    x_sq, w_j = _folded_hermite_rule(nodes_jitter)
    keep = (w_s > _WEIGHT_FLOOR) | (x_s > 0.0)
    w_pairs = np.multiply.outer(w_j, w_j)
    pair_i, pair_j = np.nonzero(w_pairs > _WEIGHT_FLOOR)
    rules = (x_s[keep], w_s[keep], x_sq, pair_i, pair_j, w_pairs[pair_i, pair_j])
    for arr in rules:
        arr.flags.writeable = False
    return rules


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
