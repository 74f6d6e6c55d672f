"""FSO link budget: visibility-driven attenuation, Gaussian-beam pointing loss,
log-normal scintillation, and the link's instantaneous / ergodic capacity.

The electrical SNR argument is Gamma = e P^2 / (2 pi sigma^2) with received
power P = h_a h_l h_p R P_T; capacity is 0.5 log2(1 + Gamma) per channel use.

The ergodic capacity of one slot is one Gauss-Hermite sum whose rules are
built once per node count and cached read-only. Its integrand log(1 + exp(t))
is evaluated in factored form: exp(t) is the product of one exponential per
scintillation node and one per node of each jitter axis, leaving one log1p
per grid node. `log_bound_params` takes the anchors of all slots as one array.

Every Monte Carlo path works in the log domain. log Gamma is affine in the
scintillation normal e and in theta_p^2, so a sample's log-SNR is
t = c0 + 4 sigma_i e - |w B|^2, where w holds the sample's two error-plane
normals and B = diag(sqrt(lam1), sqrt(lam2)) / sigma_div holds the slot's
Hoyt semi-axis variances from `hoyt_eigenvalues`, the ones the quadrature
integrates: |w B|^2 = (lam1 w1^2 + lam2 w2^2) / sigma_div^2 has the Hoyt law
of theta_p^2 / sigma_div^2. A sample draws three normals; its capacity is
f = log1p(exp(t)) / (2 log 2). `_slot_constants` builds c0 and B for every
slot and `_log_snr` is the one per-sample kernel.

A slot's estimate is not the plain mean of f. Its log-SNR has the closed-form
mean E[t] = c0 - (lam1 + lam2) / sigma_div^2 (`_mean_log_snr`, equal to
`expected_log_gamma`), and f is nearly linear in t, so the control variate
f - beta (t - E[t]) removes most of f's variance. beta is cross-fitted
(`_cross_fitted_residuals`): fitted on each half of the slot's samples and
applied to the other half, which keeps the estimate unbiased; a slope fitted
on the samples it corrects would bias every slot by O(1/n). The estimate is
the mean of these residuals and its standard error their std / sqrt(n).
The oracle `mc_ergodic_capacity` estimates one slot. `mc_capacities`
estimates every slot of a plan, each slot on its own child stream spawned
from the seed, bit-identically to calling the oracle on that stream: the
calling thread and one worker thread claim slots in turn and draw and reduce
each in their own buffers, with the same reduction helper as the oracle.
`mc_log_gamma` keeps the plain mean of t.
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
_HALF_LOG2E = 0.5 / math.log(2.0)  # 0.5 log2(x) = _HALF_LOG2E log(x)


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
    t, _ = _sample_log_snr(link, z, cov, u_hat, n, seed)
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
    seed's stream, three normals per sample, scales the error-plane normals by
    the square roots of the slot's Hoyt semi-axis variances, and reduces them
    with the log-domain kernel of `mc_capacities`: each sample's capacity is
    f = log1p(exp(t)) / (2 log 2). The value is the mean of the cross-fitted
    control-variate residuals r = f - beta (t - E[t]) of
    `_cross_fitted_residuals`, the reduction `mc_capacities` applies to each
    slot, and ``stderr`` is std(r) / sqrt(n), the standard error of that mean.
    It is unbiased for every n; n = 1 gives the plain sample and stderr 0.
    """
    t, t_mean = _sample_log_snr(link, z, cov, u_hat, n, seed)
    r = _cross_fitted_residuals(t, t_mean, np.empty(n))
    return MCEstimate(float(np.mean(r) * _HALF_LOG2E), float(np.std(r) * _HALF_LOG2E / math.sqrt(n)), n)


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
    it. ``rng`` keeps its bit stream; its ``seed_seq`` records N more spawned
    children.

    Every slot is checked, and its constants c0 and B built, before any child
    is spawned; ``z`` and ``u_hat`` must count the same slots. The calling
    thread and one worker thread then claim slots from a shared counter; each
    builds the generator of the slot it claims, draws its n (2,) error-plane
    normals and n scintillation normals, and reduces them with `_log_snr` and
    the cross-fitted control variate of `_cross_fitted_residuals` in its own
    buffers of 6n doubles: the slot's value is the mean of the residuals. A
    raise in either thread stops both, and the worker is joined before the
    call returns or raises.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    c0, factor = _slot_constants(link, z, cov, u_hat)
    t_mean = _mean_log_snr(c0, factor)
    slots = len(c0)
    bits = rng.bit_generator
    children = bits.seed_seq.spawn(slots)  # rng.spawn's seeds; each generator is built by its thread
    capacity = np.empty(slots)
    claim, claim_lock, stop = itertools.count(), threading.Lock(), threading.Event()

    def run_slots():
        w, e, y, f = np.empty((n, 2)), np.empty(n), np.empty((n, 2)), np.empty(n)
        try:
            while not stop.is_set():
                with claim_lock:
                    k = next(claim)
                if k >= slots:
                    return
                child = np.random.Generator(type(bits)(children[k]))
                child.standard_normal(out=w)
                child.standard_normal(out=e)
                t = _log_snr(w, e, factor[k], c0[k], link.sigma_i, y)
                capacity[k] = np.mean(_cross_fitted_residuals(t, t_mean[k], f)) * _HALF_LOG2E
        except BaseException:
            stop.set()
            raise

    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="fsotraj-mc")
    try:
        worker = pool.submit(run_slots)
        run_slots()
        worker.result()
    finally:
        pool.shutdown(wait=True)
    return capacity


def _slot_constants(link: LinkParams, z, cov: JitterCovariance, u_hat) -> tuple[np.ndarray, np.ndarray]:
    """The Monte Carlo kernel's constants of each slot: c0, shape (N,), and B, shape (N, 2, 2).

    c0 = log(e R^2 P_T^2 / (2 pi sigma^2)) - 4 sigma_i^2 - 2 sigma_b z + 2 log A0(z)
    is the log-SNR of an on-axis sample with e = 0. B = diag(sqrt(lam1),
    sqrt(lam2)) / sigma_div, with (lam1, lam2) the slot's row of
    `hoyt_eigenvalues`, so two error-plane normals w give |w B| with the law
    of theta_p / sigma_div. A slot's constants come from its own row of
    `hoyt_eigenvalues` and one math.log, so they do not depend on the other
    slots. A scalar ``z`` with a (3,) ``u_hat`` gives a 0-d c0 and a (2, 2) B.

    Raises ValueError when ``z`` and ``u_hat`` count different slots, and
    DegenerateGeometryError, naming the slot, for a zero pointing vector or a
    nonpositive distance.
    """
    z = np.asarray(z, dtype=float)
    u = np.asarray(u_hat, dtype=float)
    if z.shape != u.shape[:-1]:
        raise ValueError(f"got {z.size} distances and {u.size // 3} pointing vectors; need one of each per slot")
    lam = hoyt_eigenvalues(cov, u.reshape(-1, 3))
    if np.any(z <= 0.0):
        raise DegenerateGeometryError(f"propagation distance must be positive{slot_suffix(z <= 0.0)}")
    factor = np.sqrt(lam)[:, :, None] / link.sigma_div * np.eye(2)
    base = _log_snr_base(link) - 4.0 * link.sigma_i**2
    c0 = [base - 2.0 * link.sigma_b * zk + 2.0 * math.log(max_pointing_gain(zk, link)) for zk in z.ravel().tolist()]
    return np.reshape(c0, z.shape), factor.reshape(u.shape[:-1] + (2, 2))


def _sample_log_snr(link, z, cov, u_hat, n, seed) -> tuple[np.ndarray, float]:
    """Log-SNR samples of one slot, drawn from ``seed`` as `mc_capacities` draws a slot, and their mean E[t]."""
    if n < 1:
        raise ValueError("need at least one sample")
    c0, factor = _slot_constants(link, z, cov, u_hat)
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    w = rng.standard_normal((n, 2))
    e = rng.standard_normal(n)
    return _log_snr(w, e, factor, c0, link.sigma_i, np.empty((n, 2))), _mean_log_snr(c0, factor)


def _mean_log_snr(c0, factor):
    """E[t] = c0 - (lam1 + lam2) / sigma_div^2 of each slot's `_log_snr` samples.

    The normals have zero mean and unit variance, so E[|w B|^2] is the sum of
    the squared entries of B. Equals `expected_log_gamma` of the slot.
    """
    return c0 - np.square(factor).sum(axis=(-2, -1))


def _log_snr(w: np.ndarray, e: np.ndarray, factor: np.ndarray, c0: float, sigma_i: float, y: np.ndarray) -> np.ndarray:
    """Log-SNR t = c0 + 4 sigma_i e - |w B|^2 of each sample, in place over ``e``.

    ``w`` (n, 2) holds the error-plane normals, ``e`` (n,) the scintillation
    normals (log h_a = -2 sigma_i^2 + 2 sigma_i e, so E[h_a] = 1), and
    ``factor`` is the slot's diagonal (2, 2) B from `_slot_constants`:
    |w B|^2 has the law of theta_p^2 / sigma_div^2 = -2 log(h_p / A0);
    ``y`` is (n, 2) work space. One matmul by B costs less than a broadcast
    multiply by its diagonal.
    """
    np.matmul(w, factor, out=y)
    np.square(y, out=y)
    t = np.multiply(e, 4.0 * sigma_i, out=e)
    np.subtract(t, y[:, 0], out=t)
    np.subtract(t, y[:, 1], out=t)
    return np.add(t, c0, out=t)


def _cross_fitted_residuals(t: np.ndarray, t_mean: float, f: np.ndarray) -> np.ndarray:
    """Control-variate residuals r = f - beta (t - E[t]) of one slot's samples, nats, in ``f``.

    f = log(1 + exp(t)) is each sample's capacity in nats, and the control
    t - E[t] has the known mean zero (``t_mean`` is E[t] from
    `_mean_log_snr`). The samples split into the first n // 2 and the rest;
    beta is the least-squares slope of f on t fitted on one half and applied
    to the other, so no sample is corrected by a slope fitted on itself, and
    the mean of r is an unbiased estimate of E[f] with standard error
    std(r) / sqrt(n). A half whose t has no spread fits beta = 0, and n = 1
    gives r = f. ``t`` is overwritten with t - E[t]; ``f`` is (n,) work space.
    """
    np.copyto(f, t)
    f = _log1p_exp(f)
    d = np.subtract(t, t_mean, out=t)
    h = len(d) // 2
    if h == 0:
        return f
    beta_head, beta_tail = _slope(f[:h], d[:h]), _slope(f[h:], d[h:])
    d[:h] *= beta_tail
    d[h:] *= beta_head
    return np.subtract(f, d, out=f)


def _slope(f: np.ndarray, d: np.ndarray) -> float:
    """Least-squares slope of f on d, from sums; 0 when d has no spread."""
    m = len(d)
    d_sum = d.sum()
    sxx = d @ d - d_sum * d_sum / m
    if sxx <= 0.0:
        return 0.0
    return (f @ d - f.sum() * d_sum / m) / sxx


def _log1p_exp(t: np.ndarray) -> np.ndarray:
    """log(1 + exp(t)) of each sample, in place over ``t``.

    A slot whose largest t exceeds _EXP_SAFE takes logaddexp(0, t), as the
    quadrature's rows do, so no sample overflows.
    """
    if t.max() > _EXP_SAFE:
        return np.logaddexp(0.0, t, out=t)
    np.exp(t, out=t)
    return np.log1p(t, out=t)


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

    exp(t) factors over the three rules into exp(const + 2 log h_a) times
    exp(-lam1 x_i^2 / sigma_div^2) times exp(-lam2 x_j^2 / sigma_div^2), so the
    integrand costs one exponential per rule node and one log1p per grid node.
    A scintillation row whose factor would overflow (log-SNR above
    _EXP_SAFE, which no physical link reaches) takes logaddexp(0, t) instead.
    """
    const = (
        _log_snr_base(link)
        - 2.0 * link.sigma_b * z
        + 2.0 * math.log(link.aperture**2 / (2.0 * z * link.sigma_div))
    )
    x_s, w_s = _hermite_rule(nodes_scint)
    x_sq, w_j = _folded_hermite_rule(nodes_jitter)

    row = const + (-4.0 * link.sigma_i**2 + 4.0 * link.sigma_i * x_s)  # const + 2 log h_a at the nodes
    axis1 = -(hoyt.lam1 * x_sq / link.sigma_div**2)
    axis2 = -(hoyt.lam2 * x_sq / link.sigma_div**2)
    jitter = np.multiply.outer(np.exp(axis1), np.exp(axis2)).ravel()  # h_p^2 / A0^2 at the nodes
    w_jit = np.multiply.outer(w_j, w_j).ravel()

    cap = np.multiply.outer(np.exp(np.minimum(row, _EXP_SAFE)), jitter)
    np.log1p(cap, out=cap)
    if row.max() > _EXP_SAFE:
        big = row > _EXP_SAFE
        cap[big] = np.logaddexp(0.0, row[big, None] + np.add.outer(axis1, axis2).ravel())
    return float(w_s @ cap @ w_jit) * _HALF_LOG2E


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
