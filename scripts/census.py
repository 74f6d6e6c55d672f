#!/usr/bin/env python3
"""Run ``optimize`` over a fixed grid of bundled-scenario variants.

    python3 scripts/census.py

The grid is fixed here:

- ``moving.ini``: altitude {500, 600, 900} m x sigma_pitch {0.5, 1, 2, 3}
  mrad x rho_roll_pitch {0, 0.5} (24 runs). At 400 m the bundled initial line
  breaks the elevation limit, so the grid starts at 500 m.
- ``hover_pitch_jitter.ini`` shortened to 40 s (N=200): altitude {400, 900} m
  x sigma_pitch {0.5, 2, 3} mrad (6 runs).

For each case the script prints one row: outer iterations, Newton steps, the
stop reason or the error, and the closed-form true efficiency of the final
plan (repr, so every bit shows). It then prints the number of cases per
status. A case that fails stays in the grid and in the counts. It imports the
package from this checkout's ``src/``, so running it in two checkouts and
comparing the output shows whether a change moved any run.
"""
from __future__ import annotations

import itertools
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.errors import FsoTrajError  # noqa: E402
from fsotraj.optimizer import energy_efficiency, optimize  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402


def cases():
    """(scenario file, overrides) of every case, in the order they run."""
    for alt, pitch, rho in itertools.product((500, 600, 900), (0.5, 1, 2, 3), (0, 0.5)):
        yield "moving.ini", {
            ("mission", "altitude"): f"{alt} m",
            ("jitter", "sigma_pitch"): f"{pitch} mrad",
            ("jitter", "rho_roll_pitch"): f"{rho}",
        }
    for alt, pitch in itertools.product((400, 900), (0.5, 2, 3)):
        yield "hover_pitch_jitter.ini", {
            ("mission", "duration"): "40 s",
            ("mission", "altitude"): f"{alt} m",
            ("jitter", "sigma_pitch"): f"{pitch} mrad",
        }


def run(name: str, overrides: dict) -> tuple[str, str]:
    """The case's status and its printed row."""
    label = f"{name} " + " ".join(f"{key}={value}" for (_, key), value in overrides.items())
    settings = load_scenario(str(ROOT / "scenarios" / name), overrides)
    try:
        result = optimize(settings.scenario, settings.optimizer)
    except FsoTrajError as exc:
        status = type(exc).__name__
        return status, f"{label}: {status}: {exc}"
    history = result.history
    efficiency = energy_efficiency(result.plan, settings.scenario, mode="closed_form").efficiency
    return result.stop_reason, (
        f"{label}: {len(history)} outer, {sum(r.newton_iters for r in history)} newton, "
        f"{result.stop_reason}, efficiency_true {efficiency!r}"
    )


def main() -> int:
    statuses = Counter()
    for name, overrides in cases():
        status, row = run(name, overrides)
        statuses[status] += 1
        print(row, flush=True)
    print(", ".join(f"{count} {status}" for status, count in sorted(statuses.items())))
    return 0


if __name__ == "__main__":
    sys.exit(main())
