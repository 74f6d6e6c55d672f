#!/usr/bin/env python3
"""Newton steps and true efficiency of ``optimize`` over the warm-start floors.

    python3 scripts/sweep_warm_start.py [--slack-floors S ...] [--lam-floors L ...]

For every (slack, multiplier) floor pair and each of the five scenarios below,
the script runs one ``optimize`` under the library's forcing schedule
(``optimizer.solve_tolerance``) and prints a CSV row: the two floors, the
scenario, the outer iterations, the Newton steps, the stop reason, the
closed-form ``efficiency_true`` of the final plan and the error of a run that
raised (empty otherwise). Rows go to stdout as they finish.

The floors are the solver's module constants ``_WARM_SLACK_FLOOR`` and
``_WARM_LAM_FLOOR`` (multipliers are floored at the latter times the
objective scale), set at run time. No library option is involved.

Scenarios: ``moving``, ``hover_pitch_jitter`` and ``hover`` from
``scenarios/``, and two robustness variants: ``moving_rho06`` (moving with a
roll-pitch jitter correlation of 0.6) and ``hover_pitch_jitter_3mrad``
(sigma_pitch = 3 mrad). The package is imported from this checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import csv
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj import optimizer  # noqa: E402
from fsotraj.convex import solver  # noqa: E402
from fsotraj.errors import FsoTrajError  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402

SCENARIOS = ("moving", "hover_pitch_jitter", "hover", "moving_rho06", "hover_pitch_jitter_3mrad")
HEADER = ("slack_floor", "lam_floor", "scenario", "outer", "newton", "stop_reason", "efficiency_true", "error")


VARIANTS = {  # name: (bundled file, overrides)
    "moving_rho06": ("moving", {("jitter", "rho_roll_pitch"): "0.6"}),
    "hover_pitch_jitter_3mrad": ("hover_pitch_jitter", {("jitter", "sigma_pitch"): "3 mrad"}),
}


def scenario(name: str):
    """The scenario and optimizer settings of a bundled file or a robustness variant."""
    base, overrides = VARIANTS.get(name, (name, {}))
    settings = load_scenario(str(ROOT / "scenarios" / f"{base}.ini"), overrides)
    return settings.scenario, settings.optimizer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--slack-floors", type=float, nargs="+", default=[1e-4, 1e-3, 1e-2])
    parser.add_argument("--lam-floors", type=float, nargs="+", default=[1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    args = parser.parse_args(argv)

    out = csv.writer(sys.stdout, lineterminator="\n")
    out.writerow(HEADER)
    for slack in args.slack_floors:
        for lam in args.lam_floors:
            solver._WARM_SLACK_FLOOR, solver._WARM_LAM_FLOOR = slack, lam
            for name in SCENARIOS:
                sc, cfg = scenario(name)
                try:
                    res = optimizer.optimize(sc, cfg)
                except FsoTrajError as exc:
                    out.writerow((slack, lam, name, "", "", "", "", f"{type(exc).__name__}: {exc}"))
                else:
                    eff = optimizer.energy_efficiency(res.plan, sc).efficiency
                    newton = sum(r.newton_iters for r in res.history)
                    out.writerow((slack, lam, name, len(res.history), newton, res.stop_reason, repr(eff), ""))
                sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
