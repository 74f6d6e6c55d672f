import math

import numpy as np
import pytest

from fsotraj.channel import capacity_offset, expected_log_gamma
from fsotraj.errors import DegenerateVelocityError
from fsotraj.jitter import JitterCovariance, hoyt_params
from fsotraj.kinematics import pointing_vector
from fsotraj.linearize import anchor_log_gamma, delta_u_coefficients
from reference_slots import posture_from_motion


def pointing_from_motion(s, v, a, g=9.8):
    """Reference path: full posture pipeline, used as the FD oracle."""
    return pointing_vector(s, posture_from_motion(v, a, g))


def random_anchor(rng):
    s = np.array([rng.uniform(-400, 400), rng.uniform(-400, 400), 600.0])
    heading = rng.uniform(0, 2 * math.pi)
    speed = rng.uniform(3.0, 60.0)
    v = np.array([speed * math.cos(heading), speed * math.sin(heading), 0.0])
    acc = rng.uniform(0.0, 5.0)
    phi = rng.uniform(0, 2 * math.pi)
    a = np.array([acc * math.cos(phi), acc * math.sin(phi), 0.0])
    return s, v, a


class TestPointingAnchor:
    def test_value_matches_posture_pipeline(self, rng):
        for _ in range(200):
            s, v, a = random_anchor(rng)
            anchor = delta_u_coefficients(s, v, a, 9.8)
            assert np.allclose(anchor.u_hat, pointing_from_motion(s, v, a), atol=1e-10)

    def test_zero_perturbation(self, rng):
        s, v, a = random_anchor(rng)
        anchor = delta_u_coefficients(s, v, a, 9.8)
        assert np.allclose(anchor.jac @ np.zeros(6), 0.0)

    def test_finite_difference_jacobian(self, rng):
        # 100 random anchors: linear prediction within 1e-9 of the actual
        # change at perturbation size 1e-6, and the error quarters when the
        # perturbation halves.
        for _ in range(100):
            s, v, a = random_anchor(rng)
            anchor = delta_u_coefficients(s, v, a, 9.8)
            direction = rng.normal(size=6)
            direction /= np.linalg.norm(direction)

            def linearization_error(scale):
                d = scale * direction
                sp = s + np.array([d[0], d[1], 0.0])
                vp = v + np.array([d[2], d[3], 0.0])
                ap = a + np.array([d[4], d[5], 0.0])
                actual = pointing_from_motion(sp, vp, ap) - anchor.u_hat
                return np.max(np.abs(anchor.jac @ d - actual))

            assert linearization_error(1e-6) <= 1e-9
            # Second-order falloff, measured where the quadratic term is well
            # above float cancellation noise (~1e-13 at these magnitudes).
            coarse, fine = linearization_error(2e-4), linearization_error(1e-4)
            if coarse > 1e-10:
                assert fine <= 0.3 * coarse

    def test_central_difference_columns(self, rng):
        for _ in range(20):
            s, v, a = random_anchor(rng)
            anchor = delta_u_coefficients(s, v, a, 9.8)
            h = 1e-6
            for j in range(6):
                d = np.zeros(6)
                d[j] = h
                sp, sm = s.copy(), s.copy()
                vp, vm = v.copy(), v.copy()
                ap, am = a.copy(), a.copy()
                sp[:2] += d[:2]; sm[:2] -= d[:2]
                vp[:2] += d[2:4]; vm[:2] -= d[2:4]
                ap[:2] += d[4:6]; am[:2] -= d[4:6]
                col = (pointing_from_motion(sp, vp, ap) - pointing_from_motion(sm, vm, am)) / (2 * h)
                assert np.allclose(anchor.jac[:, j], col, atol=1e-6 * max(1.0, np.abs(col).max()))

    def test_straight_line_sparsity(self):
        # Level anchor along x with zero acceleration: lateral acceleration
        # enters only through the roll trig terms. At a0 = 0 the cos(roll)
        # derivative vanishes, so the response lives purely in the sin(roll)
        # rows (y and z); the x-component cannot respond at all.
        s = np.array([120.0, -80.0, 600.0])
        v = np.array([25.0, 0.0, 0.0])
        a = np.zeros(3)
        anchor = delta_u_coefficients(s, v, a, 9.8)
        assert anchor.jac[0, 4] == 0.0
        assert anchor.jac[0, 5] == 0.0
        # d u / d a_y = du/d sin(roll) * d a0/d a_y = (0, -s_z, s_y) * (-1/g).
        assert anchor.jac[1, 5] == pytest.approx(600.0 / 9.8, rel=1e-12)
        assert anchor.jac[2, 5] == pytest.approx(80.0 / 9.8, rel=1e-12)

    def test_zero_velocity_rejected(self):
        with pytest.raises(DegenerateVelocityError):
            delta_u_coefficients(np.array([1.0, 1.0, 600.0]), np.zeros(3), np.zeros(3), 9.8)


class TestAnchorLogGamma:
    def test_matches_channel_closed_form_at_tight_auxiliaries(self, rng, default_link):
        cov = JitterCovariance.from_mrad((1.0, 0.3, 0.1))
        d_mat = np.diag(
            [
                cov.matrix[1, 1] + cov.matrix[2, 2],
                cov.matrix[2, 2] + cov.matrix[0, 0],
                cov.matrix[0, 0] + cov.matrix[1, 1],
            ]
        )
        for _ in range(50):
            s, v, a = random_anchor(rng)
            anchor = delta_u_coefficients(s, v, a, 9.8)
            z = float(np.linalg.norm(s))
            s_norm = z
            u_check = math.sqrt(float(anchor.u_hat @ d_mat @ anchor.u_hat)) / z
            v_check = math.log(z)
            via_anchor = anchor_log_gamma(
                capacity_offset(default_link),
                default_link.sigma_b,
                default_link.sigma_div,
                s_norm,
                u_check,
                v_check,
            )
            hoyt = hoyt_params(cov, anchor.u_hat)
            direct = float(expected_log_gamma(default_link, [z], [[hoyt.lam1, hoyt.lam2]])[0])
            assert via_anchor == pytest.approx(direct, abs=1e-10)
