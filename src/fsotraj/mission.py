"""Mission scenarios, optimizer configuration, and the per-iteration state.

An `Iterate` carries the discrete trajectory together with the auxiliary
quantities the convex restriction is anchored at: per-slot range S, projected
jitter penalty U, log-distance V, and per-interval flight power P with its
speed/drag split Q, R. A freshly initialized iterate sets every auxiliary to
the value that makes its constraint an equality. The pointing geometry of all
slots comes from one batched `delta_u_coefficients` call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import LinkParams
from .errors import InfeasibleScenarioError, slot_suffix
from .jitter import JitterCovariance, pointing_weight_matrix, weighted_pointing_norm
from .kinematics import AircraftParams, TrajectoryPlan, differentiate_trajectory
from .linearize import delta_u_coefficients

MIN_ELEVATION = math.pi / 4  # line-of-sight floor; pi/2 is straight down


@dataclass(frozen=True)
class CircularInit:
    """Closed-loop initialization: a circle through the start point."""

    center_xy: tuple[float, float] = (0.0, -60.0)
    direction: str = "clockwise"

    def __post_init__(self):
        if self.direction not in ("clockwise", "counterclockwise"):
            raise ValueError(f"direction must be clockwise or counterclockwise, got {self.direction!r}")


@dataclass(frozen=True)
class Scenario:
    """One mission: endpoints, discretization, link, airframe, and jitter."""

    start: np.ndarray  # (3,), z = altitude
    end: np.ndarray
    n_slots: int
    delta: float
    altitude: float
    launch_cost: float
    link: LinkParams = field(default_factory=LinkParams)
    aircraft: AircraftParams = field(default_factory=AircraftParams)
    jitter: JitterCovariance = field(default_factory=JitterCovariance)
    initialization: str | CircularInit = "linear"
    seed: int = 0
    mc_samples: int = 10**6

    def __post_init__(self):
        object.__setattr__(self, "start", np.asarray(self.start, dtype=float))
        object.__setattr__(self, "end", np.asarray(self.end, dtype=float))
        if self.n_slots < 2:
            raise InfeasibleScenarioError("need at least two slots")
        if self.delta <= 0.0:
            raise InfeasibleScenarioError("slot length must be positive")
        if self.launch_cost < 0.0:
            raise InfeasibleScenarioError("launch cost must be nonnegative")
        for name, point in (("start", self.start), ("end", self.end)):
            if point.shape != (3,):
                raise InfeasibleScenarioError(f"{name} must be a 3-vector")
            if point[2] != self.altitude:
                raise InfeasibleScenarioError(f"{name} must sit at the mission altitude")

    @property
    def duration(self) -> float:
        return self.n_slots * self.delta

    def with_jitter(self, jitter: JitterCovariance) -> "Scenario":
        return replace(self, jitter=jitter)


@dataclass(frozen=True)
class OptimizerConfig:
    """Iteration thresholds; defaults follow the values pinned in the design."""

    max_outer: int = 50
    solver_tol: float = 1e-8

    def __post_init__(self):
        # A tolerance of 0 or less is never met: every solve would run out its steps.
        if not self.solver_tol > 0.0:
            raise ValueError(f"solver_tol must be positive, got {self.solver_tol!r}")


@dataclass
class Iterate:
    """Trajectory plus auxiliaries; the anchor point of one SCA round."""

    s: np.ndarray  # (N, 3)
    v: np.ndarray  # (N, 3)
    a: np.ndarray  # (N-1, 3)
    u_hat: np.ndarray  # (N, 3)
    u_jac: np.ndarray  # (N, 3, 6)
    S: np.ndarray  # (N,)
    U: np.ndarray  # (N,)
    V: np.ndarray  # (N,)
    P: np.ndarray  # (N-1,)
    Q: np.ndarray  # (N-1,)
    R: np.ndarray  # (N-1,)

    @property
    def n_slots(self) -> int:
        return self.s.shape[0]

    def validate(self, delta: float, g: float, tol: float = 1e-6) -> None:
        """Assert kinematic consistency and auxiliary-variable sanity."""
        v_expected = (self.s[1:] - self.s[:-1]) / delta
        if np.max(np.abs(self.v[:-1] - v_expected)) > tol:
            raise ValueError("velocities are not the forward differences of positions")
        if np.max(np.abs(self.v[-1] - self.v[-2])) > tol:
            raise ValueError("trailing velocity does not repeat the previous slot")
        s_norm_sq = np.einsum("kc,kc->k", self.s, self.s)
        if np.any(self.S**2 > s_norm_sq + tol * np.maximum(1.0, s_norm_sq)):
            raise ValueError("range auxiliary exceeds the slot range")
        acc_sq = np.einsum("kc,kc->k", self.a, self.a)
        if np.any(self.Q * self.R < 1.0 + acc_sq / g**2 - tol):
            raise ValueError("drag auxiliaries violate Q R >= 1 + |a|^2/g^2")

    def flat_original(self) -> np.ndarray:
        return np.concatenate([self.s.ravel(), self.v.ravel(), self.a.ravel(), self.u_hat.ravel()])

    def flat_auxiliary(self) -> np.ndarray:
        return np.concatenate([self.S, self.U, self.V, self.P, self.Q, self.R])

    def plan(self, delta: float, altitude: float) -> TrajectoryPlan:
        return TrajectoryPlan(positions=self.s.copy(), delta=delta, altitude=altitude)


def accel_slots(n: int) -> np.ndarray:
    """Index into the N-1 accelerations for each of n slots: the trailing slot
    reuses the last acceleration."""
    return np.minimum(np.arange(n), n - 2)


def pointing_geometry(s, v, a, g):
    """Pointing vectors (N, 3) and Jacobians (N, 3, 6) for every slot of a trajectory.

    Slots pair with accelerations by `accel_slots`; all slots go through one
    batched `delta_u_coefficients` call.
    """
    anchor = delta_u_coefficients(s, v, a[accel_slots(s.shape[0])], g)
    return anchor.u_hat, anchor.jac


def tight_iterate(scenario: Scenario, positions: np.ndarray) -> Iterate:
    """Build an iterate from positions with every auxiliary at equality."""
    plan = TrajectoryPlan(positions=positions, delta=scenario.delta, altitude=scenario.altitude)
    v, a = differentiate_trajectory(plan)
    g = scenario.aircraft.g
    u_hat, u_jac = pointing_geometry(positions, v, a, g)
    s_norm = np.linalg.norm(positions, axis=1)
    u_aux = weighted_pointing_norm(u_hat, pointing_weight_matrix(scenario.jitter))[0] / s_norm
    speed = np.linalg.norm(v[:-1], axis=1)
    acc_sq = np.einsum("ki,ki->k", a, a)
    q_aux = (1.0 + acc_sq / g**2) / speed
    c1, c2 = scenario.aircraft.c1, scenario.aircraft.c2
    return Iterate(
        s=positions.copy(),
        v=v,
        a=a,
        u_hat=u_hat,
        u_jac=u_jac,
        S=s_norm.copy(),
        U=u_aux,
        V=np.log(s_norm),
        P=c1 * speed**3 + c2 * q_aux,
        Q=q_aux,
        R=speed.copy(),
    )


def _violation_slots(scenario: Scenario, s, v, a) -> dict[str, np.ndarray]:
    """Violation of each original mission constraint at each slot (<= 0 is clean).

    Entry k is slot k. The endpoint families bind one slot each and read -inf
    at the others.
    """
    craft = scenario.aircraft
    speed = np.linalg.norm(v, axis=1)
    start = np.full(len(s), -np.inf)
    start[0] = np.max(np.abs(s[0] - scenario.start))
    end = np.full(len(s), -np.inf)
    end[-1] = np.max(np.abs(s[-1] - scenario.end))
    return {
        "speed_min": craft.v_min - speed,
        "speed_max": speed - craft.v_max,
        "acceleration": np.linalg.norm(a, axis=1) - craft.a_max if a.size else np.zeros(1),
        "start_point": start,
        "end_point": end,
        "altitude": np.abs(s[:, 2] - scenario.altitude),
        "elevation": np.linalg.norm(s[:, :2], axis=1) - scenario.altitude,
    }


def physical_violations(scenario: Scenario, s, v, a) -> dict[str, float]:
    """Worst-case violation of each original mission constraint (<= 0 is clean)."""
    return {name: float(np.max(per_slot)) for name, per_slot in _violation_slots(scenario, s, v, a).items()}


def worst_violation(scenario: Scenario, s, v, a) -> tuple[str, int, float]:
    """Family, slot and amount of the largest original-constraint violation.

    Ties go to the family listed first in `physical_violations`, then to the
    earliest slot.
    """
    per_slot = _violation_slots(scenario, s, v, a)
    family = max(per_slot, key=lambda name: np.max(per_slot[name]))
    slot = int(np.argmax(per_slot[family]))
    return family, slot, float(per_slot[family][slot])


def initialize_iterate(scenario: Scenario) -> Iterate:
    """Initial trajectory: uniform linear motion, or a circular loop for
    missions that start and end at the same point. Errors name the first
    violated mission constraint."""
    n = scenario.n_slots
    if isinstance(scenario.initialization, CircularInit):
        init = scenario.initialization
        center = np.array([*init.center_xy, scenario.altitude])
        radial = scenario.start - center
        radius = float(np.linalg.norm(radial[:2]))
        if radius <= 0.0:
            raise InfeasibleScenarioError("circular initialization needs start != center")
        phi0 = math.atan2(radial[1], radial[0])
        sweep = -2.0 * math.pi if init.direction == "clockwise" else 2.0 * math.pi
        angles = phi0 + sweep * np.arange(n) / (n - 1)
        positions = np.column_stack(
            [
                center[0] + radius * np.cos(angles),
                center[1] + radius * np.sin(angles),
                np.full(n, scenario.altitude),
            ]
        )
        positions[-1] = positions[0]  # exact closure
        if not np.allclose(scenario.end, scenario.start):
            raise InfeasibleScenarioError("circular initialization requires start == end")
    else:
        reach = float(np.linalg.norm(scenario.end - scenario.start))
        if reach > scenario.aircraft.v_max * (n - 1) * scenario.delta:
            raise InfeasibleScenarioError(
                f"endpoints {reach:.1f} m apart are unreachable at v_max within the mission time"
            )
        if reach == 0.0:
            raise InfeasibleScenarioError(
                "linear initialization cannot hold a fixed point; use a circular initialization"
            )
        frac = np.linspace(0.0, 1.0, n)[:, None]
        positions = scenario.start[None, :] * (1.0 - frac) + scenario.end[None, :] * frac
        positions[:, 2] = scenario.altitude  # kill interpolation round-off

    iterate = tight_iterate(scenario, positions)
    family, slot, amount = worst_violation(scenario, iterate.s, iterate.v, iterate.a)
    if amount > 1e-9:
        violations = physical_violations(scenario, iterate.s, iterate.v, iterate.a)
        bad = {name: val for name, val in violations.items() if val > 1e-9}
        raise InfeasibleScenarioError(
            f"initial trajectory violates {family} by {amount:.3g}{slot_suffix(slot)} (all: {bad})"
        )
    return iterate
