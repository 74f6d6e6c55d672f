#!/usr/bin/env python3
"""Profile one ``optimize`` call on a bundled scenario.

    python3 scripts/profile_optimize.py SCENARIO [--top K]

SCENARIO names a file in ``scenarios/`` (``moving``, ``hover``,
``hover_pitch_jitter``). The script runs one warm-up ``optimize``, then one
unprofiled call whose wall time it prints, then one call under tracemalloc,
then one call under cProfile. It prints the work counts, the bytes held by
the arrays of the cached KKT layout (``solver._Layout``; views of another
array are not counted again), the tracemalloc peak of the warm call above the
memory traced at its start, and the top K functions by self time (tottime).
It imports the package from this checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import cProfile
import io
import pstats
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from fsotraj.convex import solver  # noqa: E402
from fsotraj.optimizer import optimize  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402


def layout_nbytes(layout) -> int:
    """Bytes of the arrays a layout holds, directly or in tuples, that own their memory."""
    arrays = []
    for value in vars(layout).values():
        arrays += [v for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, np.ndarray)]
    return sum(arr.nbytes for arr in arrays if arr.base is None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="bundled scenario name, e.g. hover_pitch_jitter")
    parser.add_argument("--top", type=int, default=25, help="rows of the profile to print")
    args = parser.parse_args(argv)
    settings = load_scenario(str(ROOT / "scenarios" / f"{args.scenario}.ini"))
    sc, cfg = settings.scenario, settings.optimizer

    optimize(sc, cfg)  # warm-up: imports, caches, the KKT layout
    t0 = time.perf_counter()
    result = optimize(sc, cfg)
    wall = time.perf_counter() - t0
    layout_bytes = layout_nbytes(solver._last_layout)
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    optimize(sc, cfg)
    peak = tracemalloc.get_traced_memory()[1] - start
    tracemalloc.stop()
    profile = cProfile.Profile()
    profile.enable()
    optimize(sc, cfg)
    profile.disable()

    history = result.history
    print(
        f"{args.scenario}: {len(history)} outer iterations, {len(history)} solves, "
        f"{sum(r.newton_iters for r in history)} Newton steps, stop {result.stop_reason}"
    )
    print(f"unprofiled wall time: {wall:.3f} s")
    print(f"cached KKT layout arrays: {layout_bytes / 1e6:.2f} MB")
    print(f"tracemalloc peak of one warm optimize above its start: {peak / 1e6:.2f} MB")
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    print(f"profiled wall time: {stats.total_tt:.3f} s")
    stats.sort_stats("tottime").print_stats(args.top)
    print(out.getvalue().split("\n", 3)[-1].strip("\n"))
    return 0


if __name__ == "__main__":
    sys.exit(main())
