import math
import warnings

import numpy as np
import pytest

from conftest import analysis_geometry
from fsotraj import channel
from fsotraj.channel import (
    LinkParams,
    atmospheric_loss,
    attenuation_coefficient,
    capacity_offset,
    ergodic_capacity,
    expected_log_gamma,
    gamma_from_gains,
    instantaneous_capacity,
    log_bound_params,
    max_pointing_gain,
    mc_ergodic_capacity,
    mc_log_gamma,
    pointing_loss,
    quadrature_ergodic_capacity,
)
from fsotraj.errors import NearFieldWarning
from fsotraj.jitter import (
    HoytParams,
    JitterCovariance,
    _error_plane_factor,
    hoyt_eigenvalues,
    hoyt_params,
    psd_factor,
    sample_error_angles,
)
from fsotraj.numerics import ks_distance
from reference_slots import quadrature_unfolded


def kernel_samples(link, z, theta, e):
    """The Monte Carlo kernel's log-SNR and capacity samples at the given angles and scintillation normals.

    With both Hoyt variances 1, the slot's scale is b = (1, 1) / sigma_div:
    the error-plane draw w = (theta, 0) has the pointing-error angle theta.
    The draws form a one-slot chunk.
    """
    c0, scale, _ = channel._mc_constants(link, [z], [[1.0, 1.0]])
    w = np.zeros((1, len(theta), 2))
    w[0, :, 0] = theta
    t = channel._log_snr(w, e[None, :].copy(), scale, c0, link.sigma_i)
    return t[0].copy(), channel._log1p_exp(t, np.empty_like(t))[0] * channel._HALF_LOG2E


class TestAttenuation:
    def test_three_km_visibility(self):
        sigma_b = attenuation_coefficient(3e3, 1550e-9)
        assert sigma_b == pytest.approx(5.44e-4, rel=2e-3)

    def test_reference_wavelength(self):
        for v in (2e3, 10e3, 60e3):
            assert attenuation_coefficient(v, 550e-9) == pytest.approx(3.91 / v, rel=1e-12)

    def test_exponent_branches(self):
        # 7 km and 49 km share the middle scattering exponent.
        r7 = attenuation_coefficient(7e3, 1550e-9) * 7e3
        r49 = attenuation_coefficient(49e3, 1550e-9) * 49e3
        assert r7 == pytest.approx(r49, rel=1e-12)
        r50 = attenuation_coefficient(50e3, 1550e-9) * 50e3
        assert r50 != pytest.approx(r49, rel=1e-3)

    def test_beer_lambert(self):
        assert atmospheric_loss(5.44e-4, 0.0) == 1.0
        assert atmospheric_loss(5.44e-4, 1000.0) == pytest.approx(math.exp(-0.544), rel=1e-12)
        hl1 = atmospheric_loss(3e-4, 700.0)
        hl2 = atmospheric_loss(3e-4, 1400.0)
        assert hl2 == pytest.approx(hl1**2, rel=1e-12)


class TestPointingLoss:
    def test_on_axis_gain(self, default_link):
        a0 = max_pointing_gain(600.0, default_link)
        assert pointing_loss(0.0, 600.0, default_link) == pytest.approx(a0)

    def test_one_sigma_offset(self, default_link):
        a0 = max_pointing_gain(600.0, default_link)
        got = pointing_loss(default_link.sigma_div, 600.0, default_link)
        assert got == pytest.approx(a0 * math.exp(-0.5), rel=1e-12)

    def test_reference_gain_value(self):
        link = LinkParams(sigma_div=2e-3)
        assert max_pointing_gain(600.0, link) == pytest.approx(1.0 / 60.0, rel=1e-12)

    def test_monotone_in_angle_and_distance(self, default_link):
        thetas = np.linspace(0.0, 5e-3, 30)
        gains = pointing_loss(thetas, 600.0, default_link)
        assert np.all(np.diff(gains) < 0.0)
        z_gains = [pointing_loss(1e-3, z, default_link) for z in (400.0, 600.0, 1000.0)]
        assert z_gains[0] > z_gains[1] > z_gains[2]

    def test_near_field_warning(self, default_link):
        with pytest.warns(NearFieldWarning):
            pointing_loss(0.0, 0.5, default_link)


class TestInstantaneousCapacity:
    def test_zero_gain(self, default_link):
        assert instantaneous_capacity(0.0, 1.0, 1.0, default_link) == 0.0

    def test_unit_gamma(self, default_link):
        # Solve for h_a that makes Gamma exactly one.
        h_a = math.sqrt(2.0 * math.pi / math.e) * default_link.noise_std / (
            default_link.responsivity * default_link.transmit_power
        )
        assert instantaneous_capacity(h_a, 1.0, 1.0, default_link) == pytest.approx(0.5)

    def test_matches_recompute(self, rng, default_link):
        for _ in range(100):
            h_a, h_l, h_p = rng.uniform(0.01, 1.0, size=3)
            p = h_a * h_l * h_p * default_link.responsivity * default_link.transmit_power
            gamma = math.e * p * p / (2.0 * math.pi * default_link.noise_std**2)
            assert instantaneous_capacity(h_a, h_l, h_p, default_link) == pytest.approx(
                0.5 * math.log2(1.0 + gamma), rel=1e-12
            )
            assert gamma_from_gains(h_a, h_l, h_p, default_link) == pytest.approx(gamma, rel=1e-12)

    @pytest.mark.parametrize("target", [1e-7, 1e-11, 1e-15])
    def test_small_gamma_keeps_full_precision(self, default_link, target):
        # Rounding 1 + Gamma would cost about 1e-16 / Gamma relative precision
        # (11% at 1e-15); log1p keeps it. The series is exact to 1e-21 here.
        h_a = math.sqrt(target / gamma_from_gains(1.0, 1.0, 1.0, default_link))
        gamma = gamma_from_gains(h_a, 1.0, 1.0, default_link)
        want = (gamma - gamma**2 / 2.0 + gamma**3 / 3.0) / (2.0 * math.log(2.0))
        got = instantaneous_capacity(h_a, 1.0, 1.0, default_link)
        assert abs(got - want) <= 1e-15 * want


def one_slot_log_gamma(link, z, hp):
    """expected_log_gamma of one slot."""
    return float(expected_log_gamma(link, [z], [[hp.lam1, hp.lam2]])[0])


class TestExpectedLogGamma:
    def test_deterministic_channel(self, default_link):
        link = LinkParams(sigma_i=0.0)
        z = np.array([300.0, 700.0, 1500.0])
        expected = capacity_offset(link) - 2.0 * link.sigma_b * z - 2.0 * np.log(z)
        got = expected_log_gamma(link, z, np.zeros((3, 2)))
        np.testing.assert_allclose(got, expected, rtol=1e-12, atol=0.0)

    def test_jitter_term_isolated(self, default_link):
        lam = np.array([[0.7e-6, 0.3e-6], [2.0e-6, 0.0], [0.5e-6, 0.5e-6]])
        z = np.full(3, 600.0)
        with_jitter = expected_log_gamma(default_link, z, lam)
        without = expected_log_gamma(default_link, z, np.zeros((3, 2)))
        want = -lam.sum(axis=1) / default_link.sigma_div**2
        np.testing.assert_allclose(with_jitter - without, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("z", [400.0, 600.0, 1000.0])
    def test_against_monte_carlo(self, default_link, z):
        cov = JitterCovariance.from_mrad((1.0, 0.3, 0.1))
        u = np.array([0.0, 0.0, -z])
        hp = hoyt_params(cov, u)
        closed = one_slot_log_gamma(default_link, z, hp)
        mc = mc_log_gamma(default_link, z, hp, n=10**6, seed=42)
        assert closed == pytest.approx(mc.value, rel=0.005)


class TestHugeTransmitPower:
    """The link constant is summed in logs, so LinkParams' whole range stays finite."""

    def test_constants_stay_finite(self, default_link):
        link = LinkParams(transmit_power=1e160)  # P_T^2 overflows a double
        hp = HoytParams(0.7e-6, 0.3e-6)
        z = 700.0
        assert math.isfinite(one_slot_log_gamma(link, z, hp)) and math.isfinite(capacity_offset(link))
        shift = capacity_offset(link) - capacity_offset(default_link)
        assert shift == pytest.approx(2.0 * math.log(1e160 / default_link.transmit_power), rel=1e-12)

    def test_quadrature_is_the_log_snr(self):
        # Every node's log-SNR exceeds 700, where log(1 + Gamma) equals
        # log Gamma to double precision: the capacity is E[log Gamma] / (2 log 2).
        link = LinkParams(transmit_power=1e160)
        hp = HoytParams(0.7e-6, 0.3e-6)
        z = 700.0
        want = one_slot_log_gamma(link, z, hp) / (2.0 * math.log(2.0))
        assert quadrature_ergodic_capacity(link, z, hp) == pytest.approx(want, rel=1e-12)
        assert quadrature_unfolded(link, z, hp) == pytest.approx(want, rel=1e-12)

    def test_monte_carlo_is_the_log_snr(self):
        # Every sample's log-SNR exceeds 700 here too, so each sample's
        # capacity f equals its log-SNR t and the control t - E[t] removes
        # all of f's spread: each estimate is E[log Gamma] / (2 log 2) to
        # rounding, finite and without an overflow warning, and its standard
        # error is at rounding level.
        link = LinkParams(transmit_power=1e160)
        cov = JitterCovariance.from_mrad((1.0, 0.3, 0.1))
        z = np.array([500.0, 700.0, 900.0])
        u = np.array([[0.0, 0.0, -500.0], [300.0, -200.0, -600.0], [-500.0, 400.0, -600.0]])
        u *= (z / np.linalg.norm(u, axis=1))[:, None]
        n, seed = 20_000, 4
        want = expected_log_gamma(link, z, hoyt_eigenvalues(cov, u)) / (2.0 * math.log(2.0))
        children = np.random.default_rng(seed).spawn(3)
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            single = [mc_ergodic_capacity(link, z[k], hoyt_params(cov, u[k]), n=n, seed=children[k]) for k in range(3)]
            plan = channel.mc_capacities(link, z, hoyt_eigenvalues(cov, u), n, np.random.default_rng(seed))
        for k, mc in enumerate(single):
            assert math.isfinite(mc.value) and math.isfinite(mc.stderr)
            assert mc.value == pytest.approx(want[k], rel=1e-12)
            assert mc.stderr <= 1e-9 * mc.value
            assert plan[k] == mc.value


class TestErgodicCapacity:
    def test_anchor_tightness(self):
        for e_lg in (-2.0, 0.5, 3.0):
            gamma_l = math.exp(e_lg)
            assert ergodic_capacity(e_lg, gamma_l) == pytest.approx(
                0.5 * math.log2(1.0 + gamma_l), rel=1e-12
            )

    def test_bound_params_at_unit_anchor(self):
        grad, delta = log_bound_params(1.0)
        assert grad == pytest.approx(0.5)
        assert delta == pytest.approx(math.log(2.0))

    def test_lower_bound_property(self, rng, default_link):
        cov, u = analysis_geometry()
        hp = hoyt_params(cov, u)
        z = float(np.linalg.norm(u))
        e_lg = one_slot_log_gamma(default_link, z, hp)
        mc = mc_ergodic_capacity(default_link, z, hp, n=200_000, seed=9)
        for _ in range(20):
            gamma_l = math.exp(e_lg + rng.uniform(-2.0, 2.0))
            assert ergodic_capacity(e_lg, gamma_l) <= mc.value + 3.0 * mc.stderr


class TestMonteCarloCapacity:
    def test_deterministic_limit(self, default_link):
        link = LinkParams(sigma_i=0.0)
        z = 600.0
        mc = mc_ergodic_capacity(link, z, HoytParams(0.0, 0.0), n=64, seed=0)
        h_l = atmospheric_loss(link.sigma_b, z)
        h_p = pointing_loss(0.0, z, link)
        assert mc.value == pytest.approx(instantaneous_capacity(1.0, h_l, h_p, link), rel=1e-12)
        assert mc.stderr == pytest.approx(0.0, abs=1e-12)

    def test_stderr_halves_with_4x_samples(self, default_link):
        cov, u = analysis_geometry()
        z = float(np.linalg.norm(u))
        errs = [
            mc_ergodic_capacity(default_link, z, hoyt_params(cov, u), n=n, seed=3).stderr
            for n in (20_000, 80_000, 320_000)
        ]
        slopes = np.diff(np.log(errs)) / math.log(4.0)
        assert np.allclose(slopes, -0.5, atol=0.05)

    def test_repeat_seed_stability(self, default_link):
        cov, u = analysis_geometry()
        z = float(np.linalg.norm(u))
        hp = hoyt_params(cov, u)
        a = mc_ergodic_capacity(default_link, z, hp, n=10**6, seed=1)
        b = mc_ergodic_capacity(default_link, z, hp, n=10**6, seed=2)
        # Stable to 3 significant digits across independent seeds.
        assert abs(a.value - b.value) / a.value < 1e-3

    def test_scintillation_amplitude_unbiased(self, default_link, rng):
        n = 10**6
        h_a = np.exp(
            -2.0 * default_link.sigma_i**2
            + 2.0 * default_link.sigma_i * rng.standard_normal(n)
        )
        assert np.mean(h_a) == pytest.approx(1.0, rel=0.005)

    def test_quadrature_matches_monte_carlo(self, default_link):
        cov, u = analysis_geometry()
        hp = hoyt_params(cov, u)
        z = float(np.linalg.norm(u))
        quad = quadrature_ergodic_capacity(default_link, z, hp)
        mc = mc_ergodic_capacity(default_link, z, hp, n=10**6, seed=17)
        assert quad == pytest.approx(mc.value, rel=0.005)

    def test_draws_three_normals_per_sample(self, default_link):
        # Two error-plane normals and one scintillation normal per sample: the
        # seed's Generator ends where a twin that drew 3 n normals ends.
        cov, u = analysis_geometry()
        n = 1000
        g, twin = np.random.default_rng(21), np.random.default_rng(21)
        mc_ergodic_capacity(default_link, float(np.linalg.norm(u)), hoyt_params(cov, u), n, seed=g)
        twin.standard_normal(3 * n)
        assert g.bit_generator.state == twin.bit_generator.state

    def test_sampler_arithmetic_is_the_public_link_budget(self, default_link, rng):
        # The public gain, SNR and capacity functions compute each sample bit
        # for bit alike, in the formulas' own order. The Monte Carlo kernel
        # works with log Gamma and must match them to rounding on the same
        # (e, theta) draws, on both sides of _EXP_SAFE.
        link, z = default_link, 1500.0
        theta = np.abs(rng.normal(0.0, link.sigma_div, 4096))
        e = rng.standard_normal(4096)
        h_a = np.exp(-2.0 * link.sigma_i**2 + 2.0 * link.sigma_i * e)
        h_l = atmospheric_loss(link.sigma_b, z)
        h_p = pointing_loss(theta, z, link)
        beam = max_pointing_gain(z, link) * np.exp(-theta * theta / (2.0 * link.sigma_div**2))
        np.testing.assert_array_equal(h_p, beam)
        gamma = gamma_from_gains(h_a, h_l, h_p, link)
        p_rx = h_a * h_l * h_p * link.responsivity * link.transmit_power
        np.testing.assert_array_equal(gamma, math.e * p_rx * p_rx / (2.0 * math.pi * link.noise_std**2))
        capacity = instantaneous_capacity(h_a, h_l, h_p, link)
        np.testing.assert_array_equal(capacity, channel._HALF_LOG2E * np.log1p(gamma))
        assert instantaneous_capacity(h_a[0], h_l, h_p[0], link) == channel._HALF_LOG2E * np.log1p(gamma[0])

        # At 100 W every Gamma of these draws exceeds 0.2, where the kernel's
        # exp(t) keeps log1p at full relative precision; every t stays below
        # _EXP_SAFE.
        strong = LinkParams(transmit_power=100.0)
        t, sampled = kernel_samples(strong, z, theta, e)
        assert t.max() < channel._EXP_SAFE
        want = instantaneous_capacity(h_a, h_l, pointing_loss(theta, z, strong), strong)
        np.testing.assert_allclose(sampled, want, rtol=1e-13, atol=0.0)

        # An on-axis log-SNR of 709.3 puts the samples on both sides of
        # _EXP_SAFE while every Gamma stays a finite double, so the kernel's
        # logaddexp branch meets the product form.
        on_axis = capacity_offset(link) - 2.0 * link.sigma_b * z - 2.0 * math.log(z)
        huge = LinkParams(transmit_power=link.transmit_power * math.exp((709.3 - on_axis) / 2.0))
        theta = rng.uniform(0.0, 0.5 * link.sigma_div, 4096)
        e = rng.uniform(-0.25, 0.25, 4096)
        h_a = np.exp(-2.0 * link.sigma_i**2 + 2.0 * link.sigma_i * e)
        t, sampled = kernel_samples(huge, z, theta, e)
        assert t.min() < channel._EXP_SAFE < t.max()
        want = instantaneous_capacity(h_a, h_l, pointing_loss(theta, z, huge), huge)
        assert np.all(np.isfinite(want))
        np.testing.assert_allclose(sampled, want, rtol=1e-13, atol=0.0)


class TestCrossFittedControl:
    @staticmethod
    def slot_samples(link, n, seed):
        """One slot's log-SNR samples and their mean E[t], as the Monte Carlo draws them."""
        cov, u = analysis_geometry()
        t, t_mean, _ = channel._sample_log_snr(link, float(np.linalg.norm(u)), hoyt_params(cov, u), n, seed)
        return t[0], t_mean

    @pytest.mark.parametrize("n", [1000, 1001])
    def test_each_half_takes_the_other_halfs_slope(self, default_link, n):
        # The slope that corrects a sample is the least-squares slope of f on
        # t over the other half only (n // 2 samples first, the rest second).
        t, t_mean = self.slot_samples(default_link, n, 5)
        f = np.log1p(np.exp(t))
        h = n // 2
        beta_head = np.polyfit(t[:h], f[:h], 1)[0]
        beta_tail = np.polyfit(t[h:], f[h:], 1)[0]
        want = f - (t - t_mean) * np.concatenate([np.full(h, beta_tail), np.full(n - h, beta_head)])
        got = channel._cross_fitted_residuals(t[None, :].copy(), t_mean, np.empty((1, n, 2)))
        np.testing.assert_allclose(got[0], want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n", [1, 2])
    def test_halves_of_one_sample_give_the_plain_mean(self, default_link, n):
        # n = 1 has no first half; at n = 2 each half is one sample with no
        # spread in t, so each slope is 0.
        t, t_mean = self.slot_samples(default_link, n, 6)
        f = np.log1p(np.exp(t))
        np.testing.assert_array_equal(channel._cross_fitted_residuals(t[None, :].copy(), t_mean, np.empty((1, n, 2)))[0], f)
        cov, u = analysis_geometry()
        mc = mc_ergodic_capacity(default_link, float(np.linalg.norm(u)), hoyt_params(cov, u), n, 6)
        assert mc.value == np.mean(f) * channel._HALF_LOG2E


class TestErrorPlaneDraw:
    @staticmethod
    def assert_same_law(link, cov, u):
        """The Hoyt variances over sigma_div^2, and the eigenvalues of B^T B of the
        kernel factor, equal the eigenvalues of M^T M of each slot's 3x2 projection
        to 1e-13 of the largest; the law of |w B| depends on nothing else."""
        z = np.linalg.norm(u, axis=1)
        _, scale = channel._slot_constants(link, z, hoyt_eigenvalues(cov, u))
        factor = scale[:, :, None] * np.eye(2)
        proj = _error_plane_factor(psd_factor(cov.matrix) / link.sigma_div, u / z[:, None])
        want = np.linalg.eigvalsh(np.swapaxes(proj, 1, 2) @ proj)[:, ::-1]
        gram = np.linalg.eigvalsh(np.swapaxes(factor, 1, 2) @ factor)[:, ::-1]
        lam = hoyt_eigenvalues(cov, u) / link.sigma_div**2
        assert np.all(np.isfinite(factor))
        assert np.max(np.abs(lam - want)) <= 1e-13 * np.max(want)
        assert np.max(np.abs(gram - want)) <= 1e-13 * np.max(want)

    def test_factor_reproduces_the_projected_covariance(self, default_link, rng):
        covs = [
            JitterCovariance(tuple(rng.uniform(1e-5, 3e-3, 3)), tuple(rng.uniform(-0.4, 0.4, 3)))
            for _ in range(20)
        ]
        for cov in covs:
            self.assert_same_law(default_link, cov, rng.normal(size=(8, 3)) * rng.uniform(1.0, 1000.0))

    @pytest.mark.parametrize("sigma", [(0.0, 2e-3, 0.0), (0.0, 0.0, 0.0)])
    def test_rank_one_and_zero_projections_give_no_nan(self, default_link, rng, sigma):
        # Pitch-only jitter projects onto a rank-1 M (a zero first column for
        # some directions); zero jitter gives M = 0.
        u = np.vstack([rng.normal(size=(8, 3)) * 500.0, [[0.0, 0.0, -500.0], [300.0, 0.0, -400.0]]])
        self.assert_same_law(default_link, JitterCovariance(sigma), u)

    def test_plane_draw_has_the_law_of_the_attitude_projection(self, default_link):
        # |w B| from two error-plane normals against the small-angle |d M|
        # from three attitude normals: the two-sample KS distance (the empirical
        # CDF of one side as the other's reference) stays below 0.01, above
        # the alpha = 0.01 critical value 1.628 sqrt(2 / n) = 0.0073.
        link, n = default_link, 100_000
        cov, u = analysis_geometry(rho=0.3)
        _, scale = channel._slot_constants(link, [np.linalg.norm(u)], hoyt_eigenvalues(cov, u[None, :]))
        plane = np.linalg.norm(np.random.default_rng(31).standard_normal((n, 2)) * scale, axis=1)
        attitude = np.sort(sample_error_angles(cov, u, n, seed=32, mode="small_angle") / link.sigma_div)
        assert ks_distance(plane, lambda x: np.searchsorted(attitude, x, side="right") / n) < 0.01
