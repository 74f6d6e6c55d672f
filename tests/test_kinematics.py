import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fsotraj.errors import DegenerateGeometryError, DegenerateVelocityError, InvalidTrajectoryError
from fsotraj.kinematics import (
    AircraftParams,
    Posture,
    TrajectoryPlan,
    differentiate_trajectory,
    flight_power,
    kinetic_energy_delta,
    pointing_vector,
    posture_rotation,
    roll_from_motion,
    rotation_matrix,
    yaw_from_velocity,
)

H = 600.0


def make_plan(xy, delta=1.0, h=H):
    pos = np.column_stack([np.asarray(xy, dtype=float), np.full(len(xy), h)])
    return TrajectoryPlan(positions=pos, delta=delta, altitude=h)


class TestDifferentiate:
    def test_uniform_linear_motion(self):
        plan = make_plan([(0, 0), (2, 0), (4, 0)])
        v, a = differentiate_trajectory(plan)
        assert np.allclose(v, [(2, 0, 0), (2, 0, 0), (2, 0, 0)])
        assert np.allclose(a, 0.0)

    def test_hand_finite_difference(self):
        plan = make_plan([(0, 0), (1, 0), (3, 0)])
        v, a = differentiate_trajectory(plan)
        assert np.allclose(v[0], (1, 0, 0))
        assert np.allclose(v[1], (2, 0, 0))
        assert np.allclose(a[0], (1, 0, 0))
        # Velocity extension forces the trailing acceleration to zero.
        assert np.allclose(v[2], v[1])
        assert np.allclose(a[1], 0.0)

    def test_matches_bruteforce_recompute(self, rng):
        xy = rng.normal(scale=50.0, size=(10, 2))
        plan = make_plan(xy, delta=0.2)
        v, a = differentiate_trajectory(plan)
        for k in range(9):
            assert np.allclose(v[k], (plan.positions[k + 1] - plan.positions[k]) / 0.2)
        for k in range(8):
            assert np.allclose(a[k], (v[k + 1] - v[k]) / 0.2)
        assert np.all(v[:, 2] == 0.0)
        assert np.all(a[:, 2] == 0.0)

    def test_reintegration_roundtrip(self, rng):
        xy = rng.normal(scale=100.0, size=(50, 2))
        plan = make_plan(xy, delta=0.2)
        v, _ = differentiate_trajectory(plan)
        # s[k + 1] = s[k] + delta v[k] re-integrates the forward differences.
        back = plan.positions[0] + plan.delta * np.cumsum(np.vstack([np.zeros(3), v[:-1]]), axis=0)
        assert np.max(np.abs(back - plan.positions)) <= 1e-9 * max(1.0, np.max(np.abs(plan.positions)))

    def test_too_short_plan_rejected(self):
        with pytest.raises(InvalidTrajectoryError):
            make_plan([(0, 0)])


class TestPosture:
    def test_yaw_cardinal_cases(self):
        assert yaw_from_velocity(np.array([10.0, 0.0, 0.0])) == 0.0
        assert yaw_from_velocity(np.array([0.0, 5.0, 0.0])) == pytest.approx(math.pi / 2)
        assert yaw_from_velocity(np.array([3.0, 3.0, 0.0])) == pytest.approx(math.pi / 4)

    def test_yaw_rejects_zero_velocity(self):
        with pytest.raises(DegenerateVelocityError):
            yaw_from_velocity(np.zeros(3))

    def test_roll_zero_acceleration(self):
        assert roll_from_motion(np.array([7.0, -3.0, 0.0]), np.zeros(3), 9.8) == 0.0

    def test_roll_exact_cancellation(self):
        v = np.array([25.0, 0.0, 0.0])
        a = np.array([0.0, -9.8, 0.0])
        assert roll_from_motion(v, a, 9.8) == pytest.approx(math.pi / 4)

    def test_roll_bound_over_feasible_grid(self):
        # |roll| <= atan(a_max/g) whenever the acceleration is feasible.
        params = AircraftParams()
        bound = math.atan(params.a_max / params.g)
        assert math.degrees(bound) == pytest.approx(27.03, abs=0.01)
        speeds = np.linspace(params.v_min, params.v_max, 12)
        headings = np.linspace(0.0, 2 * math.pi, 13)
        acc_angles = np.linspace(0.0, 2 * math.pi, 17)
        acc_mags = np.linspace(0.0, params.a_max, 7)
        worst = 0.0
        for sp in speeds:
            for hd in headings:
                v = np.array([sp * math.cos(hd), sp * math.sin(hd), 0.0])
                for am in acc_mags:
                    for aa in acc_angles:
                        a = np.array([am * math.cos(aa), am * math.sin(aa), 0.0])
                        worst = max(worst, abs(roll_from_motion(v, a, params.g)))
        assert worst <= bound + 1e-12


class TestPostureRows:
    """One state per slot, shape (N, 3), gives each slot's one-state value."""

    def test_rows_equal_the_one_state_calls(self):
        rng = np.random.default_rng(5)
        v = rng.normal(scale=30.0, size=(256, 3))
        a = rng.normal(scale=3.0, size=(256, 3))
        v[::2, 2] = 0.0  # level flight, as in a plan
        craft = AircraftParams()
        roll, yaw, power = roll_from_motion(v, a, 9.8), yaw_from_velocity(v), flight_power(v, a, craft)
        assert roll.shape == yaw.shape == power.shape == (256,)
        for k in range(256):
            one = (roll_from_motion(v[k], a[k], 9.8), yaw_from_velocity(v[k]), flight_power(v[k], a[k], craft))
            assert all(type(x) is float for x in one)
            assert one == (roll[k], yaw[k], power[k])

    def test_rows_name_the_first_degenerate_slot(self):
        # Slot 1 climbs straight up: it has a speed and yaw 0. Slot 2's |v|^2
        # underflows to zero, so it has no bank angle, but its heading is
        # defined. Slot 3 stands still.
        v = np.array([[5.0, 1.0, 0.0], [0.0, 0.0, 2.0], [1e-200, 0.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
        a = np.ones_like(v)
        assert roll_from_motion(v[:2], a[:2], 9.8)[1] == 0.0
        assert yaw_from_velocity(v[:3])[1:].tolist() == [0.0, 0.0]
        with pytest.raises(DegenerateVelocityError, match="no bank angle at slot 2$"):
            roll_from_motion(v, a, 9.8)
        with pytest.raises(DegenerateVelocityError, match="no heading at slot 3$"):
            yaw_from_velocity(v)


class TestRotation:
    def test_z_quarter_turn(self):
        assert np.allclose(rotation_matrix("z", math.pi / 2) @ [1, 0, 0], [0, 1, 0])

    def test_zero_angle_identity(self):
        assert np.allclose(rotation_matrix("x", 0.0), np.eye(3))

    def test_bad_axis(self):
        with pytest.raises(ValueError):
            rotation_matrix("w", 0.1)

    @given(st.floats(-10.0, 10.0), st.sampled_from(["x", "y", "z"]))
    @settings(max_examples=300)
    def test_orthonormal_det_one(self, angle, axis):
        r = rotation_matrix(axis, angle)
        assert np.allclose(r.T @ r, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_orthonormal_thousand_random(self, rng):
        for angle in rng.uniform(-math.pi, math.pi, size=1000):
            r = rotation_matrix("y", angle)
            assert np.max(np.abs(r.T @ r - np.eye(3))) < 1e-12


class TestPointingVector:
    def test_ground_station_below(self):
        u = pointing_vector(np.array([0.0, 0.0, H]), Posture())
        assert np.allclose(u, [0.0, 0.0, -H])

    def test_level_ahead(self):
        u = pointing_vector(np.array([500.0, 0.0, 0.0]), Posture())
        assert np.allclose(u, [-500.0, 0.0, 0.0])

    def test_pitched_geometry_components(self):
        s = np.array([50.0, 550.0, 600.0])
        u = pointing_vector(s, Posture(roll=0.0, pitch=math.radians(-10.0), yaw=0.0))
        assert np.linalg.norm(u) == pytest.approx(np.linalg.norm(s), rel=1e-12)
        c, si = math.cos(math.radians(10.0)), math.sin(math.radians(10.0))
        expected = -np.array([c * 50.0 + si * 600.0, 550.0, -si * 50.0 + c * 600.0])
        assert np.allclose(u, expected)

    def test_norm_preserved_random(self, rng):
        for _ in range(1000):
            s = rng.normal(scale=300.0, size=3)
            if np.linalg.norm(s) < 1.0:
                continue
            p = Posture(*rng.uniform(-math.pi, math.pi, size=3))
            assert np.linalg.norm(pointing_vector(s, p)) == pytest.approx(
                np.linalg.norm(s), rel=1e-12
            )

    def test_one_vector_per_slot(self, rng):
        # A stack of positions gives each position's one-state vector, to
        # rounding: the stacked product may sum in another order.
        s = rng.normal(scale=300.0, size=(50, 3))
        p = Posture(roll=0.3, pitch=-0.2, yaw=1.1)
        u = pointing_vector(s, p)
        assert u.shape == s.shape
        for k in range(len(s)):
            np.testing.assert_allclose(u[k], pointing_vector(s[k], p), rtol=0.0, atol=1e-13 * np.linalg.norm(s[k]))

    def test_zero_position_names_its_slot(self):
        with pytest.raises(DegenerateGeometryError, match="ground station$"):
            pointing_vector(np.zeros(3), Posture())
        s = np.array([[1.0, 0.0, H], [0.0, 0.0, H], [0.0, 0.0, 0.0]])
        with pytest.raises(DegenerateGeometryError, match="at slot 2$"):
            pointing_vector(s, Posture())

    def test_rotation_composition_matches_matrices(self):
        p = Posture(roll=0.3, pitch=-0.2, yaw=1.1)
        expected = (
            rotation_matrix("x", -0.3) @ rotation_matrix("y", 0.2) @ rotation_matrix("z", -1.1)
        )
        assert np.allclose(posture_rotation(p), expected)


class TestFlightPower:
    def test_cruise_value(self, default_aircraft):
        p = flight_power(np.array([30.0, 0.0, 0.0]), np.zeros(3), default_aircraft)
        assert p == pytest.approx(0.000926 * 27000 + 2250 / 30, rel=1e-9)
        assert p == pytest.approx(100.002, abs=1e-3)

    def test_scaling_law(self, default_aircraft):
        v = np.array([10.0, 5.0, 0.0])
        base_cubic = default_aircraft.c1 * np.linalg.norm(v) ** 3
        base_drag = default_aircraft.c2 / np.linalg.norm(v)
        for t in (2.0, 3.0):
            p = flight_power(t * v, np.zeros(3), default_aircraft)
            assert p == pytest.approx(base_cubic * t**3 + base_drag / t, rel=1e-12)

    def test_matches_bruteforce(self, rng, default_aircraft):
        for _ in range(100):
            v = rng.normal(scale=20.0, size=3)
            v[2] = 0.0
            if np.linalg.norm(v) < 1.0:
                continue
            a = rng.normal(scale=3.0, size=3)
            a[2] = 0.0
            expected = default_aircraft.c1 * np.linalg.norm(v) ** 3 + (
                default_aircraft.c2 / np.linalg.norm(v)
            ) * (1 + np.dot(a, a) / default_aircraft.g**2)
            assert flight_power(v, a, default_aircraft) == pytest.approx(expected, rel=1e-12)

    def test_strictly_convex_in_acceleration(self, default_aircraft):
        v = np.array([25.0, 0.0, 0.0])
        mags = np.linspace(0.0, 5.0, 21)
        powers = [
            flight_power(v, np.array([0.0, m, 0.0]), default_aircraft) for m in mags
        ]
        second = np.diff(powers, 2)
        assert np.all(second > 0.0)

    def test_zero_velocity_rejected(self, default_aircraft):
        with pytest.raises(DegenerateVelocityError):
            flight_power(np.zeros(3), np.zeros(3), default_aircraft)


class TestKineticEnergy:
    def test_equal_speeds(self):
        assert kinetic_energy_delta(np.array([3.0, 0, 0]), np.array([0, 3.0, 0]), 7.0) == 0.0

    def test_hand_value(self):
        assert kinetic_energy_delta(np.array([3.0, 0, 0]), np.array([5.0, 0, 0]), 2.0) == pytest.approx(16.0)

    def test_closed_loop_symmetric(self):
        v = np.array([4.0, 1.0, 0.0])
        assert kinetic_energy_delta(v, -v, 11.0) == 0.0


def test_aircraft_params_validation():
    with pytest.raises(ValueError):
        AircraftParams(v_min=0.0)
    with pytest.raises(ValueError):
        AircraftParams(v_min=10.0, v_max=5.0)
    with pytest.raises(ValueError):
        AircraftParams(a_max=-1.0)
