#!/usr/bin/env python3
"""Profile ``energy_efficiency`` on a bundled scenario's initial plan.

    python3 scripts/profile_evaluate.py SCENARIO [--top K] [--samples M]

SCENARIO names a file in ``scenarios/`` (``moving``, ``hover``,
``hover_pitch_jitter``). For each mode (closed form, then Monte Carlo with
M samples per slot) the script runs one warm-up call, then one unprofiled
call whose wall time it prints, then one call under cProfile, and prints the
top K functions by self time (tottime). It imports the package from this
checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.mission import initialize_iterate  # noqa: E402
from fsotraj.optimizer import energy_efficiency  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="bundled scenario name, e.g. hover_pitch_jitter")
    parser.add_argument("--top", type=int, default=15, help="rows of each profile to print")
    parser.add_argument("--samples", type=int, default=20_000, help="Monte Carlo samples per slot")
    args = parser.parse_args(argv)
    sc = load_scenario(str(ROOT / "scenarios" / f"{args.scenario}.ini")).scenario
    plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)

    for mode in ("closed_form", "monte_carlo"):
        kwargs = {"mode": mode, "samples_per_slot": args.samples}
        energy_efficiency(plan, sc, **kwargs)  # warm-up: imports, cached rules
        t0 = time.perf_counter()
        report = energy_efficiency(plan, sc, **kwargs)
        wall = time.perf_counter() - t0
        profile = cProfile.Profile()
        profile.enable()
        energy_efficiency(plan, sc, **kwargs)
        profile.disable()

        print(f"{args.scenario} {mode}: {plan.n_slots} slots, efficiency {report.efficiency!r}")
        print(f"unprofiled wall time: {wall:.4f} s")
        out = io.StringIO()
        stats = pstats.Stats(profile, stream=out)
        print(f"profiled wall time: {stats.total_tt:.4f} s")
        stats.sort_stats("tottime").print_stats(args.top)
        print(out.getvalue().split("\n", 3)[-1].strip("\n"))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
