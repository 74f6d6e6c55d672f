import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import analysis_geometry
from fsotraj.errors import DegenerateHoytWarning, InvalidCovarianceError, UnsupportedReductionError
from fsotraj.jitter import (
    HoytParams,
    JitterCovariance,
    JitterSample,
    _error_plane_factor,
    error_projection_matrix,
    hoyt_cdf,
    hoyt_eigenvalues,
    hoyt_params,
    hoyt_pdf,
    jitter_matrix,
    pointing_weight_matrix,
    psd_factor,
    reduce_jitter_dof,
    sample_error_angles,
)
from fsotraj.numerics import ks_distance

MRAD2 = 1e-6  # rad^2 per mrad^2


def random_cov(rng):
    sig = rng.uniform(0.1e-3, 2e-3, size=3)
    # Random correlations kept well inside the PSD region.
    rho = rng.uniform(-0.4, 0.4, size=3)
    return JitterCovariance(tuple(sig), tuple(rho))


def random_direction(rng, scale=800.0):
    while True:
        u = rng.normal(size=3) * scale
        if np.linalg.norm(u) > 0.1 * scale:
            return u


class TestCovariance:
    def test_matrix_layout(self):
        cov = JitterCovariance.from_mrad((1.0, 0.3, 0.1), (0.5, 0.5, 0.5))
        m = cov.matrix * 1e6
        assert m[0, 0] == pytest.approx(1.0)
        assert m[0, 1] == pytest.approx(0.5 * 1.0 * 0.3)
        assert m[1, 2] == pytest.approx(0.5 * 0.3 * 0.1)
        assert m[2, 0] == pytest.approx(0.5 * 0.1 * 1.0)
        assert np.allclose(m, m.T)

    def test_rejects_bad_inputs(self):
        with pytest.raises(InvalidCovarianceError):
            JitterCovariance((-1e-3, 1e-3, 1e-3))
        with pytest.raises(InvalidCovarianceError):
            JitterCovariance((1e-3, 1e-3, 1e-3), (1.5, 0.0, 0.0))
        # All-pairs correlation of -0.9 is not a valid correlation structure.
        with pytest.raises(InvalidCovarianceError):
            JitterCovariance((1e-3, 1e-3, 1e-3), (-0.9, -0.9, -0.9))

    def test_preset_total_power(self):
        # All four standard presets carry the same total jitter power.
        for sig in [(1, 0.1, 0.1), (0.1, 1, 0.1), (0.1, 0.1, 1), (0.583, 0.583, 0.583)]:
            cov = JitterCovariance.from_mrad(sig)
            assert math.sqrt(np.trace(cov.matrix)) * 1e3 == pytest.approx(1.01, abs=0.002)


class TestJitterMatrix:
    def test_zero_sample_identity(self):
        mats = jitter_matrix(JitterSample(0.0, 0.0, 0.0))
        assert np.allclose(mats.exact, np.eye(3))
        assert np.allclose(mats.linearized, np.eye(3))

    def test_small_angle_taylor_remainder(self):
        mats = jitter_matrix(JitterSample(1e-3, 0.0, 0.0))
        assert np.max(np.abs(mats.exact - mats.linearized)) < 1e-6

    def test_mrad_scale_agreement(self, rng):
        for _ in range(200):
            s = JitterSample(*rng.normal(scale=1e-3, size=3))
            mats = jitter_matrix(s)
            assert np.max(np.abs(mats.exact - mats.linearized)) < 1e-5


class TestProjection:
    def test_vertical_pointing(self):
        a = error_projection_matrix(np.array([0.0, 0.0, 123.0]))
        assert np.allclose(a, np.diag([1.0, 1.0, 0.0]))

    def test_diagonal_plane_pointing(self):
        z = 10.0
        a = error_projection_matrix(np.array([z / math.sqrt(2), z / math.sqrt(2), 0.0]))
        assert np.allclose(a, [[0.5, -0.5, 0.0], [-0.5, 0.5, 0.0], [0.0, 0.0, 1.0]])

    def test_eigenvalues_and_idempotency(self, rng):
        for _ in range(200):
            u = random_direction(rng)
            a = error_projection_matrix(u)
            assert np.allclose(np.sort(np.linalg.eigvalsh(a)), [0.0, 1.0, 1.0], atol=1e-12)
            assert np.allclose(a @ a, a, atol=1e-12)
            assert np.allclose(a @ u, 0.0, atol=1e-9 * np.linalg.norm(u))


class TestHoytParams:
    def test_isotropic_cov(self, rng):
        cov = JitterCovariance((1e-3, 1e-3, 1e-3))
        for _ in range(20):
            hp = hoyt_params(cov, random_direction(rng))
            assert hp.lam1 == pytest.approx(1e-6, rel=1e-9)
            assert hp.lam2 == pytest.approx(1e-6, rel=1e-9)
            assert hp.q == pytest.approx(1.0)
            assert hp.omega == pytest.approx(2e-6, rel=1e-9)

    @pytest.mark.parametrize(
        "yaw,rho,lam1,lam2",
        [
            (0.0, 0.0, 0.9664, 0.0522),
            (0.0, 0.5, 0.9202, 0.0324),
            (math.pi / 2, 0.0, 0.3797, 0.0891),
            (math.pi / 2, 0.5, 0.3723, 0.0640),
        ],
    )
    def test_reference_geometry_eigenvalues(self, yaw, rho, lam1, lam2):
        cov, u = analysis_geometry(yaw=yaw, rho=rho)
        hp = hoyt_params(cov, u)
        assert hp.lam1 / MRAD2 == pytest.approx(lam1, rel=0.02)
        assert hp.lam2 / MRAD2 == pytest.approx(lam2, rel=0.02)

    def test_trace_identity(self, rng):
        for _ in range(1000):
            cov = random_cov(rng)
            u = random_direction(rng)
            hp = hoyt_params(cov, u)
            tr = float(np.trace(cov.matrix @ error_projection_matrix(u)))
            assert hp.omega == pytest.approx(tr, rel=1e-10)

    def test_diagonal_weight_identity(self, rng):
        # u^T D u / |u|^2 equals Tr(Sigma A_u) and lam1 + lam2, for diagonal
        # and for correlated covariances alike.
        for k in range(1000):
            sig = rng.uniform(0.05e-3, 3e-3, size=3)
            cov = JitterCovariance(tuple(sig)) if k % 2 else random_cov(rng)
            u = random_direction(rng)
            d = pointing_weight_matrix(cov)
            lhs = float(u @ d @ u) / float(u @ u)
            rhs = float(np.trace(cov.matrix @ error_projection_matrix(u)))
            assert lhs == pytest.approx(rhs, rel=1e-12)
            assert lhs == pytest.approx(float(np.sum(hoyt_eigenvalues(cov, u[None, :]))), rel=1e-12)

    @pytest.mark.parametrize(
        "sigma, rho",
        [
            ((0.1e-3, 1e-3, 0.3e-3), (0.0, 0.0, 0.0)),
            ((0.5e-3, 0.5e-3, 0.5e-3), (0.6, -0.3, 0.2)),
            ((0.5e-3, 0.5e-3, 0.5e-3), (1.0, 0.0, 0.0)),
            ((0.0, 1e-3, 0.0), (0.0, 0.0, 0.0)),
        ],
        ids=["diagonal", "correlated", "rho_1", "pitch_only_singular"],
    )
    def test_weight_matrix_factor(self, sigma, rho):
        d = pointing_weight_matrix(JitterCovariance(sigma, rho))
        np.testing.assert_array_equal(d, d.T)
        assert np.min(np.linalg.eigvalsh(d)) >= -1e-15 * np.trace(d)
        f = psd_factor(d)
        np.testing.assert_allclose(f @ f.T, d, rtol=0.0, atol=1e-15 * np.trace(d))
        if not any(rho) and min(sigma) > 0.0:
            # A diagonal Sigma gives each weight as the sum of the other two
            # variances, with no trace round-off, and that D factors to its
            # elementwise root, bit for bit.
            sa, sb, sg = (s * s for s in sigma)
            np.testing.assert_array_equal(d, np.diag([sb + sg, sg + sa, sa + sb]))
            np.testing.assert_array_equal(f, np.sqrt(d))

    def test_expected_square_error(self):
        cov, u = analysis_geometry()
        hp = hoyt_params(cov, u)
        assert hp.omega / MRAD2 == pytest.approx(1.0186, rel=0.002)
        assert HoytParams(0.0, 0.0).omega == 0.0


class TestPdf:
    def test_rayleigh_limit(self):
        hp = HoytParams(0.5e-6, 0.5e-6)  # q = 1
        theta = np.linspace(0.0, 5e-3, 100)[1:]
        rayleigh = theta * (2.0 / hp.omega) * np.exp(-(theta**2) / hp.omega)
        assert np.allclose(hoyt_pdf(theta, hp), rayleigh, rtol=1e-12)

    def test_normalization_reference_geometry(self):
        for yaw in (0.0, math.pi / 2):
            cov, u = analysis_geometry(yaw=yaw)
            hp = hoyt_params(cov, u)
            theta = np.linspace(0.0, 12.0 * math.sqrt(hp.omega), 200_001)
            total = np.trapezoid(hoyt_pdf(theta, hp), theta)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_degenerate_axis_warns_and_normalizes(self):
        hp = HoytParams(1e-6, 0.0)
        with pytest.warns(DegenerateHoytWarning):
            val = hoyt_pdf(1e-3, hp)
        assert val > 0.0
        theta = np.linspace(0.0, 12e-3, 100_001)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            total = np.trapezoid(hoyt_pdf(theta, hp), theta)
        assert total == pytest.approx(1.0, abs=1e-6)

    def test_moment_against_density(self):
        cov, u = analysis_geometry()
        hp = hoyt_params(cov, u)
        theta = np.linspace(0.0, 15.0 * math.sqrt(hp.omega), 400_001)
        second = np.trapezoid(theta**2 * hoyt_pdf(theta, hp), theta)
        assert second == pytest.approx(hp.omega, rel=1e-8)

    def test_cdf_monotone_and_bounded(self):
        cov, u = analysis_geometry()
        hp = hoyt_params(cov, u)
        theta = np.linspace(0.0, 8.0 * math.sqrt(hp.omega), 512)
        cdf = hoyt_cdf(theta, hp)
        assert np.all(np.diff(cdf) >= 0.0)
        assert cdf[0] == 0.0
        assert cdf[-1] == pytest.approx(1.0, abs=1e-4)


class TestSampling:
    def test_zero_covariance(self):
        cov = JitterCovariance((0.0, 0.0, 0.0))
        out = sample_error_angles(cov, np.array([0.0, 0.0, 100.0]), 1000, seed=1)
        assert np.all(out == 0.0)

    def test_deterministic_given_seed(self):
        cov, u = analysis_geometry()
        a = sample_error_angles(cov, u, 1000, seed=7)
        b = sample_error_angles(cov, u, 1000, seed=7)
        assert np.array_equal(a, b)

    def test_mean_square_matches_omega(self):
        cov, u = analysis_geometry()
        hp = hoyt_params(cov, u)
        th = sample_error_angles(cov, u, 10**6, seed=3)
        assert np.mean(th**2) == pytest.approx(hp.omega, rel=0.01)

    def test_exact_vs_small_angle_paired(self):
        cov, u = analysis_geometry()
        exact = sample_error_angles(cov, u, 20_000, seed=11, mode="exact")
        small = sample_error_angles(cov, u, 20_000, seed=11, mode="small_angle")
        assert np.max(np.abs(exact - small)) < 1e-6

    def test_plane_projection_is_the_small_angle_formula(self, rng):
        # |d F| with F = L^T [e1 e2] is sqrt(|x|^2 - (x.u)^2 / |u|^2) for the
        # attitude draw x = L d, away from the cancellation of that formula,
        # both from the projection and from the small-angle sampler.
        for trial in range(20):
            u = rng.normal(size=3) * rng.uniform(1.0, 1000.0)
            cov = JitterCovariance(tuple(rng.uniform(1e-4, 2e-3, 3)), tuple(rng.uniform(-0.4, 0.4, 3)))
            factor = psd_factor(cov.matrix)
            d = np.random.default_rng(trial).standard_normal((2000, 3))
            x = d @ factor.T
            along = (x @ u) ** 2 / (u @ u)
            norm_sq = np.einsum("ni,ni->n", x, x)
            keep = along < 0.5 * norm_sq
            want = np.sqrt(norm_sq - along)
            y = d @ _error_plane_factor(factor, (u / np.linalg.norm(u))[None, :])[0]
            np.testing.assert_allclose(np.hypot(y[:, 0], y[:, 1])[keep], want[keep], rtol=1e-12, atol=0.0)
            sampled = sample_error_angles(cov, u, 2000, seed=trial, mode="small_angle")
            np.testing.assert_allclose(sampled[keep], want[keep], rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("yaw,rho", [(0.0, 0.0), (0.0, 0.5), (math.pi / 2, 0.0), (math.pi / 2, 0.5)])
    def test_ks_against_hoyt_cdf(self, yaw, rho):
        # Small-angle samples follow the Hoyt law exactly, so the KS distance
        # must pass at the alpha = 0.01 critical value 1.628/sqrt(n).
        cov, u = analysis_geometry(yaw=yaw, rho=rho)
        hp = hoyt_params(cov, u)
        th = sample_error_angles(cov, u, 10**6, seed=5, mode="small_angle")
        assert ks_distance(th, lambda x: hoyt_cdf(x, hp)) < 1.628e-3

    def test_singular_covariance_sampling(self):
        rank_one_diagonal = JitterCovariance((1e-3, 0.0, 0.0))
        rank_two_correlated = JitterCovariance((1e-3, 2e-3, 5e-4), rho=(1.0, 0.0, 0.0))
        for cov in (rank_one_diagonal, rank_two_correlated):
            # Cholesky fails on both, so the sampler takes the PSD-root fallback.
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.cholesky(cov.matrix)
            factor = psd_factor(cov.matrix)
            assert np.allclose(factor @ factor.T, cov.matrix, rtol=0.0, atol=1e-12 * np.max(cov.matrix))
            th = sample_error_angles(cov, np.array([0.0, 0.0, 50.0]), 1000, seed=2)
            assert np.all(np.isfinite(th))

    def test_bad_mode(self):
        cov, u = analysis_geometry()
        with pytest.raises(ValueError):
            sample_error_angles(cov, u, 10, mode="bogus")


class TestDofReduction:
    def test_two_dof_pooling(self):
        cov = JitterCovariance.from_mrad((0.1, 1.0, 0.1))
        red = reduce_jitter_dof(cov, 2)
        assert red.sigma[0] * 1e3 == pytest.approx(0.711, abs=5e-4)
        assert red.sigma[1] * 1e3 == pytest.approx(0.711, abs=5e-4)
        assert red.sigma[2] * 1e3 == pytest.approx(0.1)

    def test_one_dof_pooling(self):
        cov = JitterCovariance.from_mrad((0.1, 1.0, 0.1))
        red = reduce_jitter_dof(cov, 1)
        for s in red.sigma:
            assert s * 1e3 == pytest.approx(0.583, abs=5e-4)

    def test_three_dof_identity(self):
        cov = JitterCovariance.from_mrad((0.4, 0.2, 0.9))
        assert reduce_jitter_dof(cov, 3) is cov

    @given(st.tuples(st.floats(0.01, 3.0), st.floats(0.01, 3.0), st.floats(0.01, 3.0)),
           st.sampled_from([1, 2, 3]))
    @settings(max_examples=200)
    def test_trace_preserved(self, sig_mrad, dof):
        cov = JitterCovariance.from_mrad(sig_mrad)
        red = reduce_jitter_dof(cov, dof)
        assert np.trace(red.matrix) == pytest.approx(np.trace(cov.matrix), rel=1e-12)

    def test_correlated_input_rejected(self):
        cov = JitterCovariance((1e-3, 1e-3, 1e-3), (0.3, 0.0, 0.0))
        with pytest.raises(UnsupportedReductionError):
            reduce_jitter_dof(cov, 2)
