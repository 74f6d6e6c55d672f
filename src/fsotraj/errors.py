"""Exception and warning types shared across the package."""

import numpy as np


def slot_suffix(bad) -> str:
    """" at slot k" for a slot index k, or naming the first True entry of a
    per-slot mask; "" for a single boolean."""
    bad = np.asarray(bad)
    if bad.dtype != bool:
        return f" at slot {int(bad)}"
    if bad.ndim == 0:
        return ""
    return f" at slot {int(np.argmax(bad))}"


class FsoTrajError(Exception):
    """Base class for all package errors."""


class InvalidTrajectoryError(FsoTrajError, ValueError):
    """Trajectory plan violates a structural invariant (too short, wrong altitude...)."""


class DegenerateVelocityError(FsoTrajError, ValueError):
    """Velocity has zero norm where a heading is required."""


class DegenerateGeometryError(FsoTrajError, ValueError):
    """Position or pointing vector has zero norm."""


class InvalidCovarianceError(FsoTrajError, ValueError):
    """Jitter covariance is not symmetric positive semidefinite."""


class UnsupportedReductionError(FsoTrajError, ValueError):
    """Degree-of-freedom reduction requested on a correlated covariance."""


class InfeasibleScenarioError(FsoTrajError, RuntimeError):
    """Scenario cannot satisfy its own kinematic or geometric constraints."""


class SolverError(FsoTrajError, RuntimeError):
    """Convex subproblem solve failed (infeasible or not converged)."""


class ScenarioParseError(FsoTrajError, ValueError):
    """Scenario file is malformed; carries the dotted field path."""

    def __init__(self, field, msg):
        super().__init__(f"{field}: {msg}")
        self.field = field


class NearFieldWarning(UserWarning):
    """Beam footprint is not much larger than the receive aperture."""


class DegenerateHoytWarning(UserWarning):
    """Pointing-error distribution collapsed to its one-dimensional limit."""
