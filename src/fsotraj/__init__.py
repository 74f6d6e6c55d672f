"""Energy-efficient fixed-wing UAV trajectories for free-space optical links.

The package models pointing errors caused by three-axis attitude jitter,
evaluates the resulting link capacity and flight power, and plans
energy-efficiency-maximizing trajectories by successive convex restriction
with a fractional-programming inner loop.
"""

from .channel import (
    LinkParams,
    ergodic_capacity,
    expected_log_gamma,
    instantaneous_capacity,
    mc_ergodic_capacity,
    quadrature_ergodic_capacity,
)
from .jitter import (
    HoytParams,
    JitterCovariance,
    hoyt_cdf,
    hoyt_eigenvalues,
    hoyt_params,
    hoyt_pdf,
    reduce_jitter_dof,
    sample_error_angles,
)
from .kinematics import (
    AircraftParams,
    Posture,
    TrajectoryPlan,
    differentiate_trajectory,
    flight_power,
    pointing_vector,
)
from .mission import CircularInit, OptimizerConfig, Scenario, initialize_iterate
from .optimizer import dinkelbach_solve, energy_efficiency, optimize
from .scenario import dump_scenario, load_scenario

__all__ = [
    "AircraftParams",
    "CircularInit",
    "HoytParams",
    "JitterCovariance",
    "LinkParams",
    "OptimizerConfig",
    "Posture",
    "Scenario",
    "TrajectoryPlan",
    "differentiate_trajectory",
    "dinkelbach_solve",
    "dump_scenario",
    "energy_efficiency",
    "ergodic_capacity",
    "expected_log_gamma",
    "flight_power",
    "hoyt_cdf",
    "hoyt_eigenvalues",
    "hoyt_params",
    "hoyt_pdf",
    "initialize_iterate",
    "instantaneous_capacity",
    "load_scenario",
    "mc_ergodic_capacity",
    "optimize",
    "pointing_vector",
    "quadrature_ergodic_capacity",
    "reduce_jitter_dof",
    "sample_error_angles",
]

__version__ = "0.1.0"
