"""Discrete-time UAV kinematics, posture from motion, and fixed-wing flight power.

Conventions: the ground station sits at the origin of a right-handed x-y-z
frame with z up. A trajectory is a sequence of N positions at fixed altitude,
one per time slot of length ``delta`` seconds. Velocities are forward
differences; the velocity at the last slot repeats the one before it
(equivalent to extending the plan by a virtual point 2 s[N] - s[N-1]), which
also forces the last acceleration to zero.

Everything here is a pure function of immutable inputs: safe to call
concurrently from any number of threads.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateGeometryError, DegenerateVelocityError, InvalidTrajectoryError, slot_suffix

Vec3 = np.ndarray  # shape (3,), meters / m/s / m/s^2 by context


@dataclass(frozen=True)
class Posture:
    """UAV attitude in radians. In the trajectory pipeline pitch is always 0."""

    roll: float = 0.0
    pitch: float = 0.0
    yaw: float = 0.0


@dataclass(frozen=True)
class AircraftParams:
    """Fixed-wing airframe constants for the flight-power model."""

    c1: float = 9.26e-4  # parasitic drag lump, kg/m
    c2: float = 2250.0  # induced drag lump, kg m^3 / s^4
    g: float = 9.8  # m/s^2
    mass: float = 5.0  # kg, used only for kinetic-energy diagnostics
    v_min: float = 3.0  # m/s
    v_max: float = 100.0  # m/s
    a_max: float = 5.0  # m/s^2

    def __post_init__(self):
        if not (0.0 < self.v_min < self.v_max):
            raise ValueError("require 0 < v_min < v_max")
        if self.a_max <= 0.0 or self.g <= 0.0 or self.c1 <= 0.0 or self.c2 <= 0.0:
            raise ValueError("a_max, g, c1, c2 must be positive")


@dataclass(frozen=True)
class TrajectoryPlan:
    """Discrete UAV positions, shape (N, 3), all at altitude z = H."""

    positions: np.ndarray
    delta: float
    altitude: float

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise InvalidTrajectoryError(f"positions must be (N, 3), got {pos.shape}")
        if pos.shape[0] < 2:
            raise InvalidTrajectoryError("a plan needs at least 2 slots")
        if self.delta <= 0.0:
            raise InvalidTrajectoryError("slot length must be positive")
        if not np.all(np.isfinite(pos)):
            raise InvalidTrajectoryError("positions must be finite")
        if np.any(pos[:, 2] != self.altitude):
            raise InvalidTrajectoryError("all positions must sit exactly at z = altitude")

    @property
    def n_slots(self) -> int:
        return self.positions.shape[0]

    def virtual_end(self) -> Vec3:
        """The implied position one slot past the end, 2 s[N] - s[N-1]."""
        return 2.0 * self.positions[-1] - self.positions[-2]


def differentiate_trajectory(plan: TrajectoryPlan) -> tuple[np.ndarray, np.ndarray]:
    """Forward-difference velocities (N, 3) and accelerations (N-1, 3).

    v[k] = (s[k+1] - s[k]) / delta for k < N, v[N] = v[N-1];
    a[k] = (v[k+1] - v[k]) / delta. The trailing acceleration is identically
    zero because of the velocity extension.
    """
    pos = plan.positions
    vel = np.empty_like(pos)
    vel[:-1] = (pos[1:] - pos[:-1]) / plan.delta
    vel[-1] = vel[-2]
    acc = (vel[1:] - vel[:-1]) / plan.delta
    return vel, acc


def reintegrate(plan: TrajectoryPlan, velocities: np.ndarray) -> np.ndarray:
    """Cumulative re-integration s[k+1] = s[k] + delta v[k]; inverse of differentiation."""
    out = np.empty_like(plan.positions)
    out[0] = plan.positions[0]
    out[1:] = plan.positions[0] + plan.delta * np.cumsum(velocities[:-1], axis=0)
    return out


def yaw_from_velocity(v: Vec3) -> float:
    """Heading angle from the ground-frame velocity, full-quadrant atan2."""
    v = np.asarray(v, dtype=float)
    norm = math.hypot(v[0], v[1])
    if norm == 0.0 and v[2] == 0.0:
        raise DegenerateVelocityError("zero velocity has no heading")
    return math.atan2(v[1], v[0])


def roll_from_motion(v: Vec3, a: Vec3, g: float) -> float:
    """Bank angle induced by lateral acceleration: atan((v_y a_x - v_x a_y) / (|v| g))."""
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    speed = np.linalg.norm(v)
    if speed == 0.0:
        raise DegenerateVelocityError("zero velocity has no bank angle")
    return math.atan((v[1] * a[0] - v[0] * a[1]) / (speed * g))


def rotation_matrix(axis: str, angle: float) -> np.ndarray:
    """Right-handed 3x3 rotation matrix about the x, y, or z axis."""
    c, s = math.cos(angle), math.sin(angle)
    if axis == "x":
        return np.array([[1.0, 0.0, 0.0], [0.0, c, -s], [0.0, s, c]])
    if axis == "y":
        return np.array([[c, 0.0, s], [0.0, 1.0, 0.0], [-s, 0.0, c]])
    if axis == "z":
        return np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
    raise ValueError(f"axis must be one of x, y, z, got {axis!r}")


def posture_rotation(posture: Posture) -> np.ndarray:
    """Ground-to-body rotation R_x(-roll) R_y(-pitch) R_z(-yaw)."""
    return (
        rotation_matrix("x", -posture.roll)
        @ rotation_matrix("y", -posture.pitch)
        @ rotation_matrix("z", -posture.yaw)
    )


def pointing_vector(s: Vec3, posture: Posture) -> Vec3:
    """Body-frame vector from the UAV toward the ground station.

    u = -R_x(-roll) R_y(-pitch) R_z(-yaw) s; its norm equals the link distance.
    """
    s = np.asarray(s, dtype=float)
    if np.linalg.norm(s) == 0.0:
        raise DegenerateGeometryError("UAV is at the ground station")
    return -(posture_rotation(posture) @ s)


def posture_from_motion(v: Vec3, a: Vec3, g: float) -> Posture:
    """Level-flight posture implied by velocity and acceleration (pitch = 0)."""
    return Posture(roll=roll_from_motion(v, a, g), pitch=0.0, yaw=yaw_from_velocity(v))


def flight_power(v, a, params: AircraftParams):
    """Fixed-wing propulsion power c1 |v|^3 + (c2/|v|) (1 + |a|^2/g^2), watts.

    ``v`` and ``a`` are one state of shape (3,), giving a float, or one state
    per slot, shape (N, 3), giving an (N,) array.
    """
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    speed = np.sqrt(np.einsum("...i,...i->...", v, v))
    if np.any(speed == 0.0):
        raise DegenerateVelocityError(f"flight power model diverges at zero speed{slot_suffix(speed == 0.0)}")
    acc_sq = np.einsum("...i,...i->...", a, a)
    out = params.c1 * speed**3 + (params.c2 / speed) * (1.0 + acc_sq / params.g**2)
    return float(out) if out.ndim == 0 else out


def kinetic_energy_delta(v_first: Vec3, v_last: Vec3, mass: float) -> float:
    """Kinetic-energy change m/2 (|v_last|^2 - |v_first|^2), joules.

    Reported for diagnostics only; it is bounded by the speed limits and
    excluded from the optimized energy budget.
    """
    v0 = np.asarray(v_first, dtype=float)
    v1 = np.asarray(v_last, dtype=float)
    return 0.5 * mass * float(np.dot(v1, v1) - np.dot(v0, v0))
