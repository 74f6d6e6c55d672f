"""Exception and warning types shared across the package."""


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


class BracketError(FsoTrajError, RuntimeError):
    """Fractional-programming bisection failed: no sign change on the bracket,
    or the iteration budget ran out before |F| <= tol_f."""

    def __init__(self, msg, f_lo=None, f_hi=None, lam=None, f=None, tol_f=None):
        super().__init__(msg)
        self.f_lo = f_lo
        self.f_hi = f_hi
        self.lam = lam
        self.f = f
        self.tol_f = tol_f


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
