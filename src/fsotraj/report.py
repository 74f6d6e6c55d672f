"""Run reports and their on-disk form.

Every number that a plot would need goes to CSV ('.' decimal separator,
header line, newline-terminated rows, full float precision so re-reading
reproduces values bit-exactly).
"""
from __future__ import annotations

import json
from dataclasses import astuple, dataclass
from pathlib import Path

import numpy as np

from .errors import FsoTrajError, InvalidTrajectoryError
from .kinematics import (
    TrajectoryPlan,
    differentiate_trajectory,
    flight_power,
    kinetic_energy_delta,
    roll_from_motion,
    yaw_from_velocity,
)
from .mission import Scenario, accel_slots
from .optimizer import EfficiencyReport, OptimizeResult


def _fmt(x) -> str:
    return format(float(x), ".17g")


def write_csv(path: Path, header: list[str], rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) if not isinstance(v, str) else v for v in row) + "\n")


def read_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Header plus a float array of one row per line; an object array if any
    cell is textual or a row's width differs from the header's (a ragged
    file gives one list per row)."""

    def cell(v):
        try:
            return float(v)
        except ValueError:
            return v

    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip().split(",")
        rows = [[cell(v) for v in line.strip().split(",")] for line in fh if line.strip()]
    if rows and all(len(row) == len(header) and all(isinstance(v, float) for v in row) for row in rows):
        return header, np.array(rows, dtype=float)
    return header, np.array(rows, dtype=object)


TRAJECTORY_HEADER = ["t", "x", "y", "z", "vx", "vy", "ax", "ay", "roll", "yaw", "se", "power"]


def read_plan(path: Path, delta: float, altitude: float) -> TrajectoryPlan:
    """The plan in a trajectory.csv written at slot ``delta`` and ``altitude``.

    InvalidTrajectoryError, naming the file, if its header is not
    TRAJECTORY_HEADER, a row is not one number per column (or there is no
    row), its t column is not arange(N) * delta or its z column is not the
    altitude (both are written at 17 digits, so they read back exactly), or
    its positions are not a valid TrajectoryPlan.
    """
    header, data = read_csv(path)
    if header != TRAJECTORY_HEADER:
        raise InvalidTrajectoryError(f"{path}: header {header} is not {TRAJECTORY_HEADER}")
    if data.dtype != float:
        raise InvalidTrajectoryError(f"{path}: expected one row of {len(header)} numbers per slot")
    n = len(data)
    for column, expected in (("t", np.arange(n) * delta), ("z", np.full(n, altitude))):
        read = data[:, header.index(column)]
        bad = np.flatnonzero(read != expected)
        if bad.size:
            k = bad[0]
            raise InvalidTrajectoryError(
                f"{path}: {column} = {float(read[k])!r} at slot {k}, but slot {delta!r} s "
                f"and altitude {altitude!r} m put it at {float(expected[k])!r}"
            )
    try:
        return TrajectoryPlan(positions=data[:, 1:4], delta=delta, altitude=altitude)
    except InvalidTrajectoryError as exc:  # one slot, a non-finite position...
        raise InvalidTrajectoryError(f"{path}: {exc}") from None


TRACE_HEADER = [  # IterationRecord's fields, in order
    "iteration",
    "lambda_star",
    "c_tot",
    "p_tot",
    "efficiency",
    "step_norm",
    "max_violation",
    "newton_iters",
    "solver_tol",
]
VALIDATION_HEADER = ["check", "reference", "estimate", "abs_error", "rel_error", "passed"]


@dataclass
class ValidationRow:
    check: str
    reference: float
    estimate: float
    tolerance_rel: float = 0.0
    one_sided: bool = False  # pass iff estimate <= reference (within slop)

    @property
    def rel_error(self) -> float:
        scale = max(abs(self.reference), 1e-300)
        return abs(self.estimate - self.reference) / scale

    @property
    def passed(self) -> bool:
        if self.one_sided:
            # Where the bound is tight, reference and estimate differ only by
            # the rounding of their separate computations: allow 4 ulps.
            slop = self.tolerance_rel * max(abs(self.reference), 1.0) + 4.0 * np.spacing(abs(self.reference))
            return self.estimate <= self.reference + slop
        return self.rel_error <= self.tolerance_rel


def write_validation(path: Path, rows: list[ValidationRow]) -> None:
    cells = [
        (r.check, r.reference, r.estimate, abs(r.estimate - r.reference), r.rel_error, float(r.passed))
        for r in rows
    ]
    write_csv(path, VALIDATION_HEADER, cells)


@dataclass
class RunReport:
    """Everything one optimization run produced, re-runnable from the echo."""

    scenario_echo: str
    scenario: Scenario
    result: OptimizeResult
    efficiency: EfficiencyReport

    def trajectory_rows(self) -> np.ndarray:
        """The trajectory.csv table, one row per slot, columns in TRAJECTORY_HEADER order."""
        plan, craft = self.result.plan, self.scenario.aircraft
        v, a = differentiate_trajectory(plan)
        a = a[accel_slots(plan.n_slots)]
        return np.column_stack([
            np.arange(plan.n_slots) * plan.delta,
            plan.positions,
            v[:, :2],
            a[:, :2],
            roll_from_motion(v, a, craft.g),
            yaw_from_velocity(v),
            self.efficiency.capacity_per_slot,
            flight_power(v, a, craft),
        ])

    def summary_text(self) -> str:
        plan, history = self.result.plan, self.result.history
        v, _ = differentiate_trajectory(plan)
        delta_ek = kinetic_energy_delta(v[0], v[-1], self.scenario.aircraft.mass)
        lines = [
            "run summary",
            "===========",
            f"slots: {plan.n_slots}",
            f"slot_length_s: {_fmt(plan.delta)}",
            f"altitude_m: {_fmt(plan.altitude)}",
            f"converged: {str(self.result.converged).lower()}",
            f"outer_iterations: {len(history)}",
            f"capacity_total_bits: {_fmt(self.efficiency.capacity_total)}",
            f"power_total_w: {_fmt(self.efficiency.power_total)}",
            f"efficiency: {_fmt(self.efficiency.efficiency)}",
            f"efficiency_mode: {self.efficiency.mode}",
            # Diagnostics only: bounded by the speed limits and excluded from
            # the optimized energy budget.
            f"kinetic_energy_delta_j: {_fmt(delta_ek)}",
        ]
        if history:
            last = history[-1]
            lines += [
                f"surrogate_efficiency: {_fmt(last.efficiency)}",
                f"lambda_star: {_fmt(last.lam_star)}",
                f"max_violation: {_fmt(max(r.max_violation for r in history))}",
            ]
        return "\n".join(lines) + "\n"


def write_outputs(report: RunReport, out_dir) -> list[str]:
    """Write the deterministic file set into the existing directory
    ``out_dir``, then the run's wall-clock time to ``timings.json``; returns
    the manifest."""
    out = Path(out_dir)
    manifest = []

    (out / "scenario.echo").write_text(report.scenario_echo, encoding="utf-8")
    manifest.append("scenario.echo")

    write_csv(out / "trajectory.csv", TRAJECTORY_HEADER, report.trajectory_rows())
    manifest.append("trajectory.csv")

    write_csv(out / "efficiency_trace.csv", TRACE_HEADER, map(astuple, report.result.history))
    manifest.append("efficiency_trace.csv")

    write_validation(out / "validation.csv", [])
    manifest.append("validation.csv")

    (out / "report").write_text(report.summary_text(), encoding="utf-8")
    manifest.append("report")

    (out / "timings.json").write_text(json.dumps({"wall_time_s": report.result.wall_time}) + "\n", encoding="utf-8")
    manifest.append("timings.json")
    return manifest


def read_report_value(out_dir, key: str, choices: tuple[str, ...] = ()) -> float | str:
    """The value on the ``key:`` line of the run's ``report``: one of
    ``choices`` if given, else a number. FsoTrajError, naming the file, if it
    cannot be read or holds no such value."""
    path = Path(out_dir) / "report"
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        raise FsoTrajError(f"{path}: cannot read the run's report: {exc.strerror}") from exc
    for line in lines:
        if line.startswith(key + ":"):
            text = line.split(":", 1)[1].strip()
            if choices:
                if text in choices:
                    return text
                break
            try:
                return float(text)
            except ValueError:
                break
    raise FsoTrajError(f"{path}: no '{key}: {' or '.join(choices) or '<number>'}' line")
