#!/usr/bin/env python3
"""Print a digest of every bundled plan and of the SOC apex toy.

    python3 scripts/plan_digest.py

For each scenario in ``scenarios/`` the script runs one ``optimize`` and
prints its outer iterations, Newton steps, stop reason, the closed-form true
efficiency of the final plan (repr, so every bit shows), and a sha256 of the
final positions and one of every iteration record. It then solves the SOC
projection toy (minimize t s.t. |(x, y) - c| <= t) for c = (1, 2) and 59
targets from ``default_rng(0).uniform(-5, 5, (59, 2))`` at tol 1e-8 and
prints how many solves end with each status, then the same for every target
moved one ulp up and one ulp down (``np.nextafter``), with the index of each
target that does not end ``optimal``: the apex count is sensitive to
rounding, so a change to the solver's arithmetic shows on these lines first.
It imports the package from this checkout's ``src/``, so running it in two
checkouts and comparing the output shows whether a change moved any bit of a
plan.
"""
from __future__ import annotations

import dataclasses
import hashlib
import sys
from collections import Counter
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.convex import ConvexProgram, VariableSpace, solve  # noqa: E402
from fsotraj.optimizer import energy_efficiency, optimize  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402


def plan_line(path: Path) -> str:
    settings = load_scenario(str(path))
    result = optimize(settings.scenario, settings.optimizer)
    history = result.history
    efficiency = energy_efficiency(result.plan, settings.scenario, mode="closed_form").efficiency
    positions = np.ascontiguousarray(result.plan.positions, dtype=float)
    records = "\n".join(repr(dataclasses.astuple(r)) for r in history)
    return (
        f"{path.stem}: {len(history)} outer, {sum(r.newton_iters for r in history)} newton, "
        f"{result.stop_reason}, efficiency_true {efficiency!r}, "
        f"positions {hashlib.sha256(positions.tobytes()).hexdigest()[:16]}, "
        f"trace {hashlib.sha256(records.encode()).hexdigest()[:16]}"
    )


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
    counts = ", ".join(f"{count} {status}" for status, count in sorted(Counter(statuses).items()))
    missed = [i for i, status in enumerate(statuses) if status != "optimal"]
    return f"{label} ({len(targets)} targets): {counts}" + (f"; not optimal: {missed}" if missed else "")


def main() -> int:
    for path in sorted((ROOT / "scenarios").glob("*.ini")):
        print(plan_line(path), flush=True)
    targets = np.vstack([[1.0, 2.0], np.random.default_rng(0).uniform(-5, 5, (59, 2))])
    print(apex_line("apex toy", targets), flush=True)
    print(apex_line("apex toy, one ulp up", np.nextafter(targets, np.inf)), flush=True)
    print(apex_line("apex toy, one ulp down", np.nextafter(targets, -np.inf)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
