#!/usr/bin/env python3
"""Print the gate output of a solver change: bundled plans, apex toy, optimize and solver census.

    python3 scripts/census.py

Four sections, in this order, each grid fixed here:

1. One ``optimize`` row (below) per scenario in ``scenarios/``, with a sha256
   of the final positions and one of every iteration record.
2. The SOC toy minimize t s.t. |(x, y) - c| <= t at tol 1e-8, for c = (1, 2)
   and 59 targets from ``default_rng(0).uniform(-5, 5, (59, 2))``: the solves
   per status, then the same with every target one ulp up and one ulp down
   (``np.nextafter``), naming each target that does not end ``optimal``. The
   apex count is sensitive to rounding, so a change to the solver's
   arithmetic shows here first.
3. The optimize census, one ``optimize`` row per case, then the cases per
   status: ``moving.ini`` at altitude {500, 600, 900} m x sigma_pitch {0.5,
   1, 2, 3} mrad x rho_roll_pitch {0, 0.5} (at 400 m its initial line breaks
   the elevation limit), and ``hover_pitch_jitter.ini`` shortened to 40 s
   (N=200) at altitude {400, 900} m x sigma_pitch {0.5, 2, 3} mrad.
4. The solver census: ``Subproblem(initialize_iterate(sc), sc)`` at its
   anchor's trade-off, solved cold from the anchor at ``solver_tol``, for
   ``moving.ini``, and ``hover_pitch_jitter.ini`` and ``hover.ini`` shortened
   to 40 s, at altitude {500, 600, 900} m x sigma_pitch {0.5, 1, 2, 3, 4, 5}
   mrad x the 3-, 2- and 1-DoF models of ``reduce_jitter_dof``. One row per
   case (DoF, status, Newton steps), then the cases per status and the Newton
   total. Each restriction is built from the initial plan alone, so each
   outcome is the solver's own.

An ``optimize`` row gives the outer iterations, Newton steps, the stop reason
and the closed-form true efficiency of the final plan (repr, so every bit
shows). A case that raises keeps its row, with the error, and counts under
the error's class name. The script has no option and writes no file. It
imports the package from this checkout's ``src/``, so running it in two
checkouts and comparing the output shows whether a change moved any bit of a
plan or any solve.
"""
from __future__ import annotations

import dataclasses
import hashlib
import itertools
import sys
from collections import Counter
from functools import partial
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.convex import ConvexProgram, VariableSpace, solve  # noqa: E402
from fsotraj.errors import FsoTrajError  # noqa: E402
from fsotraj.jitter import reduce_jitter_dof  # noqa: E402
from fsotraj.mission import initialize_iterate  # noqa: E402
from fsotraj.optimizer import energy_efficiency, optimize  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402
from fsotraj.subproblem import Subproblem  # noqa: E402


def sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:16]


def optimize_run(settings, hashes: bool = False) -> tuple[str, int, str]:
    """Stop reason, Newton steps and row text of one ``optimize``."""
    result = optimize(settings.scenario, settings.optimizer)
    history = result.history
    newton = sum(r.newton_iters for r in history)
    efficiency = energy_efficiency(result.plan, settings.scenario, mode="closed_form").efficiency
    text = f"{len(history)} outer, {newton} newton, {result.stop_reason}, efficiency_true {efficiency!r}"
    if hashes:
        positions = np.ascontiguousarray(result.plan.positions, dtype=float)
        records = "\n".join(repr(dataclasses.astuple(r)) for r in history)
        text += f", positions {sha(positions.tobytes())}, trace {sha(records.encode())}"
    return result.stop_reason, newton, text


def restriction_solve(settings, dof: int) -> tuple[str, int, str]:
    """Status, Newton steps and row text of the cold first restriction under the dof-DoF model."""
    sc = settings.scenario.with_jitter(reduce_jitter_dof(settings.scenario.jitter, dof))
    sub = Subproblem(initialize_iterate(sc), sc)
    sub.set_anchor_tradeoff()
    sol = solve(sub.program, tol=settings.optimizer.solver_tol, x0=sub.anchor_x())
    return sol.status, sol.iterations, f"{dof} DoF, {sol.status}, {sol.iterations} newton"


def run_row(label: str, name: str, overrides: dict, run) -> tuple[str, int, str]:
    """Status, Newton steps and printed row of ``run`` on scenarios/``name`` with ``overrides``."""
    settings = load_scenario(str(ROOT / "scenarios" / name), overrides)
    try:
        status, newton, text = run(settings)
    except FsoTrajError as exc:
        status, newton, text = type(exc).__name__, 0, f"{type(exc).__name__}: {exc}"
    return status, newton, f"{label}: {text}"


def count_line(statuses) -> str:
    """The number of cases per status, statuses in sorted order."""
    return ", ".join(f"{count} {status}" for status, count in sorted(Counter(statuses).items()))


def grid_case(name: str, overrides: dict, run) -> tuple:
    """(label, scenario file, overrides, run) of one grid case."""
    return f"{name} " + " ".join(f"{key}={value}" for (_, key), value in overrides.items()), name, overrides, run


def plan_cases():
    for path in sorted((ROOT / "scenarios").glob("*.ini")):
        yield path.stem, path.name, {}, partial(optimize_run, hashes=True)


def optimize_cases():
    for alt, pitch, rho in itertools.product((500, 600, 900), (0.5, 1, 2, 3), (0, 0.5)):
        overrides = {("mission", "altitude"): f"{alt} m", ("jitter", "sigma_pitch"): f"{pitch} mrad"}
        yield grid_case("moving.ini", {**overrides, ("jitter", "rho_roll_pitch"): f"{rho}"}, optimize_run)
    for alt, pitch in itertools.product((400, 900), (0.5, 2, 3)):
        overrides = {("mission", "altitude"): f"{alt} m", ("jitter", "sigma_pitch"): f"{pitch} mrad"}
        yield grid_case("hover_pitch_jitter.ini", {("mission", "duration"): "40 s", **overrides}, optimize_run)


def solver_cases():
    for name in ("moving.ini", "hover_pitch_jitter.ini", "hover.ini"):
        shorten = {} if name == "moving.ini" else {("mission", "duration"): "40 s"}
        for alt, pitch, dof in itertools.product((500, 600, 900), (0.5, 1, 2, 3, 4, 5), (3, 2, 1)):
            overrides = {**shorten, ("mission", "altitude"): f"{alt} m", ("jitter", "sigma_pitch"): f"{pitch} mrad"}
            yield grid_case(name, overrides, partial(restriction_solve, dof=dof))


def apex_status(target) -> str:
    space = VariableSpace()
    for name in ("x", "y", "t"):
        space.add(name, ())
    program = ConvexProgram(space)
    program.objective.lin[space.index("t")] = 1.0
    a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    c = np.array([[0.0, 0.0, 1.0]])
    program.add_soc("dist", np.array([[0, 1, 2]]), a, -np.asarray(target, dtype=float)[None, :], c, np.zeros(1))
    return solve(program, tol=1e-8).status


def apex_line(label: str, targets) -> str:
    statuses = [apex_status(c) for c in targets]
    missed = [i for i, status in enumerate(statuses) if status != "optimal"]
    return f"{label} ({len(targets)} targets): {count_line(statuses)}" + (f"; not optimal: {missed}" if missed else "")


def print_rows(cases) -> tuple[list[str], int]:
    """Print the row of every case as it finishes; the statuses and the Newton total."""
    statuses, newton = [], 0
    for case in cases:
        status, steps, row = run_row(*case)
        statuses.append(status)
        newton += steps
        print(row, flush=True)
    return statuses, newton


def main() -> int:
    print_rows(plan_cases())
    targets = np.vstack([[1.0, 2.0], np.random.default_rng(0).uniform(-5, 5, (59, 2))])
    print(apex_line("apex toy", targets), flush=True)
    print(apex_line("apex toy, one ulp up", np.nextafter(targets, np.inf)), flush=True)
    print(apex_line("apex toy, one ulp down", np.nextafter(targets, -np.inf)), flush=True)
    statuses, _ = print_rows(optimize_cases())
    print(count_line(statuses), flush=True)
    statuses, newton = print_rows(solver_cases())
    print(f"{count_line(statuses)}; {newton} newton")
    return 0


if __name__ == "__main__":
    sys.exit(main())
