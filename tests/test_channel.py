import math

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
    log_gamma_terms,
    max_pointing_gain,
    mc_ergodic_capacity,
    mc_log_gamma,
    pointing_loss,
    quadrature_ergodic_capacity,
)
from fsotraj.errors import NearFieldWarning
from fsotraj.jitter import HoytParams, JitterCovariance, hoyt_params


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


class TestLinkBudget:
    def test_assembled_state(self, default_link):
        from fsotraj.channel import link_budget

        budget = link_budget(0.9, 1e-3, 600.0, default_link)
        assert 0.0 < budget.h_l <= 1.0
        assert 0.0 < budget.h_p <= max_pointing_gain(600.0, default_link)
        assert budget.gamma == pytest.approx(
            gamma_from_gains(budget.h_a, budget.h_l, budget.h_p, default_link)
        )
        assert instantaneous_capacity(budget.h_a, budget.h_l, budget.h_p, default_link) > 0.0


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


class TestExpectedLogGamma:
    def test_deterministic_channel(self, default_link):
        link = LinkParams(sigma_i=0.0)
        hp = HoytParams(0.0, 0.0)
        z = 700.0
        expected = capacity_offset(link) - 2.0 * link.sigma_b * z - 2.0 * math.log(z)
        assert expected_log_gamma(link, z, hp) == pytest.approx(expected, rel=1e-12)

    def test_jitter_term_isolated(self, default_link):
        hp = HoytParams(0.7e-6, 0.3e-6)
        z = 600.0
        with_jitter = expected_log_gamma(default_link, z, hp)
        without = expected_log_gamma(default_link, z, HoytParams(0.0, 0.0))
        assert with_jitter - without == pytest.approx(-hp.omega / default_link.sigma_div**2, rel=1e-12)

    def test_component_decomposition(self, default_link):
        cov, u = analysis_geometry()
        hp = hoyt_params(cov, u)
        z = float(np.linalg.norm(u))
        terms = log_gamma_terms(default_link, z, hp)
        assert sum(terms) == pytest.approx(expected_log_gamma(default_link, z, hp), abs=1e-12)

    @pytest.mark.parametrize("z", [400.0, 600.0, 1000.0])
    def test_against_monte_carlo(self, default_link, z):
        cov = JitterCovariance.from_mrad((1.0, 0.3, 0.1))
        u = np.array([0.0, 0.0, -z])
        hp = hoyt_params(cov, u)
        closed = expected_log_gamma(default_link, z, hp)
        mc = mc_log_gamma(default_link, z, cov, u, n=10**6, seed=42)
        assert closed == pytest.approx(mc.value, rel=0.005)


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
        e_lg = expected_log_gamma(default_link, z, hp)
        mc = mc_ergodic_capacity(default_link, z, cov, u, n=200_000, seed=9)
        for _ in range(20):
            gamma_l = math.exp(e_lg + rng.uniform(-2.0, 2.0))
            assert ergodic_capacity(e_lg, gamma_l) <= mc.value + 3.0 * mc.stderr


class TestMonteCarloCapacity:
    def test_deterministic_limit(self, default_link):
        link = LinkParams(sigma_i=0.0)
        cov = JitterCovariance((0.0, 0.0, 0.0))
        z = 600.0
        u = np.array([0.0, 0.0, -z])
        mc = mc_ergodic_capacity(link, z, cov, u, n=64, seed=0)
        h_l = atmospheric_loss(link.sigma_b, z)
        h_p = pointing_loss(0.0, z, link)
        assert mc.value == pytest.approx(instantaneous_capacity(1.0, h_l, h_p, link), rel=1e-12)
        assert mc.stderr == pytest.approx(0.0, abs=1e-12)

    def test_stderr_halves_with_4x_samples(self, default_link):
        cov, u = analysis_geometry()
        z = float(np.linalg.norm(u))
        errs = [
            mc_ergodic_capacity(default_link, z, cov, u, n=n, seed=3).stderr
            for n in (20_000, 80_000, 320_000)
        ]
        slopes = np.diff(np.log(errs)) / math.log(4.0)
        assert np.allclose(slopes, -0.5, atol=0.05)

    def test_repeat_seed_stability(self, default_link):
        cov, u = analysis_geometry()
        z = float(np.linalg.norm(u))
        a = mc_ergodic_capacity(default_link, z, cov, u, n=10**6, seed=1)
        b = mc_ergodic_capacity(default_link, z, cov, u, n=10**6, seed=2)
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
        mc = mc_ergodic_capacity(default_link, z, cov, u, n=10**6, seed=17)
        assert quad == pytest.approx(mc.value, rel=0.005)

    def test_sampler_arithmetic_is_the_public_link_budget(self, default_link, rng):
        # The Monte Carlo sampler and the public gain, SNR and capacity functions
        # must compute each sample bit for bit alike, in the formulas' own order.
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
        sampled = channel._gamma_from_draws(link, z, theta.copy(), e.copy())
        np.testing.assert_array_equal(sampled, gamma)
        capacity = instantaneous_capacity(h_a, h_l, h_p, link)
        np.testing.assert_array_equal(channel._capacity_samples(sampled), capacity)
        assert instantaneous_capacity(h_a[0], h_l, h_p[0], link) == 0.5 * math.log2(1.0 + gamma[0])
