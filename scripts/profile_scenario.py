#!/usr/bin/env python3
"""Profile ``optimize`` and ``energy_efficiency`` on a bundled scenario.

    python3 scripts/profile_scenario.py SCENARIO

SCENARIO names a file in ``scenarios/`` (``moving``, ``hover``,
``hover_pitch_jitter``). Three calls are profiled: ``optimize``, then
``energy_efficiency`` on the initial plan in closed form and in Monte Carlo
at the function's default samples per slot. Each runs once to warm up, once
unprofiled, once under tracemalloc and once under cProfile. The script
prints each call's work counts or efficiency (repr), its wall times, its
tracemalloc peak above the memory traced at its start and its top 25
functions by self time; for ``optimize`` also the bytes of the cached KKT
layout's own arrays (``solver._Layout``; views are not counted again).

It then splits one thread's Monte Carlo work into its two layers: it replays
the library's chunk kernel in the chunks of slots that ``mc_capacities``
claims, each slot on the child stream that ``energy_efficiency`` spawns from
the scenario seed, and times the normal draws apart from the log-domain
arithmetic (the slots' Hoyt eigenvalues and constants, then per chunk the
log-SNR kernel and the cross-fitted control-variate reduction), per chunk and
per slot. It exits with status 1 when the replayed capacities differ from
those of the ``energy_efficiency`` call. It imports the package from this
checkout's ``src/``.
"""
from __future__ import annotations

import argparse
import cProfile
import inspect
import io
import pstats
import sys
import time
import tracemalloc
from functools import partial
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fsotraj import channel  # noqa: E402
from fsotraj.convex import solver  # noqa: E402
from fsotraj.jitter import hoyt_eigenvalues  # noqa: E402
from fsotraj.kinematics import differentiate_trajectory  # noqa: E402
from fsotraj.mission import initialize_iterate, pointing_geometry  # noqa: E402
from fsotraj.optimizer import energy_efficiency, optimize  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402

SAMPLES = inspect.signature(energy_efficiency).parameters["samples_per_slot"].default
TOP = 25  # rows of each profile to print


def profiled(call):
    """``call()``'s result from one timed run after a warm-up, and the lines that report
    its unprofiled wall time, its tracemalloc peak and its top functions under cProfile."""
    call()
    t0 = time.perf_counter()
    result = call()
    wall = time.perf_counter() - t0
    tracemalloc.start()
    start = tracemalloc.get_traced_memory()[0]
    call()
    peak = tracemalloc.get_traced_memory()[1] - start
    tracemalloc.stop()
    profile = cProfile.Profile()
    profile.enable()
    call()
    profile.disable()
    out = io.StringIO()
    stats = pstats.Stats(profile, stream=out)
    stats.sort_stats("tottime").print_stats(TOP)
    return result, (
        f"unprofiled wall time: {wall:.4f} s\n"
        f"tracemalloc peak of one warm call above its start: {peak / 1e6:.2f} MB\n"
        f"profiled wall time: {stats.total_tt:.4f} s\n" + out.getvalue().split("\n", 3)[-1].strip("\n") + "\n"
    )


def layout_nbytes(layout) -> int:
    """Bytes of the arrays a layout holds, directly or in tuples, that own their memory."""
    arrays = []
    for value in vars(layout).values():
        arrays += [v for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, np.ndarray)]
    return sum(arr.nbytes for arr in arrays if arr.base is None)


def monte_carlo_layers(sc, plan, samples: int) -> tuple[float, float, np.ndarray, int, int]:
    """One thread's seconds of normal draws and of arithmetic over every chunk, the capacities,
    the normals drawn per sample and the slots per chunk.

    The slots run in the chunks of ``mc_capacities``, slot k drawing from the
    k-th child of the scenario seed as in ``energy_efficiency(mode="monte_carlo")``,
    so the capacities equal that call's.
    """
    v, a = differentiate_trajectory(plan)
    u_hat, _ = pointing_geometry(plan.positions, v, a, sc.aircraft.g)
    z = np.linalg.norm(plan.positions, axis=1)
    children = np.random.default_rng(sc.seed).spawn(len(z))
    chunk = channel._chunk_slots(samples)
    w_rows, e_rows = np.empty((chunk, samples, 2)), np.empty((chunk, samples))
    capacity = np.empty(len(z))
    t0 = time.perf_counter()
    c0, scale, t_mean = channel._mc_constants(sc.link, z, hoyt_eigenvalues(sc.jitter, u_hat))
    arithmetic = time.perf_counter() - t0
    draws = 0.0
    for lo in range(0, len(z), chunk):
        hi = min(lo + chunk, len(z))
        w, e = w_rows[: hi - lo], e_rows[: hi - lo]
        t0 = time.perf_counter()
        for i, child in enumerate(children[lo:hi]):
            channel._draw_slot(child, w[i], e[i])
        t1 = time.perf_counter()
        t = channel._log_snr(w, e, scale[lo:hi], c0[lo:hi], sc.link.sigma_i)
        r = channel._cross_fitted_residuals(t, t_mean[lo:hi], w)
        capacity[lo:hi] = np.mean(r, axis=1) * channel._HALF_LOG2E
        t2 = time.perf_counter()
        draws += t1 - t0
        arithmetic += t2 - t1
    return draws, arithmetic, capacity, (w_rows[0].size + e_rows[0].size) // samples, chunk


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("scenario", help="bundled scenario name, e.g. hover_pitch_jitter")
    args = parser.parse_args(argv)
    settings = load_scenario(str(ROOT / "scenarios" / f"{args.scenario}.ini"))
    sc, cfg = settings.scenario, settings.optimizer

    result, lines = profiled(partial(optimize, sc, cfg))
    history = result.history
    print(
        f"{args.scenario}: {len(history)} outer iterations, {len(history)} solves, "
        f"{sum(r.newton_iters for r in history)} Newton steps, stop {result.stop_reason}"
    )
    print(f"cached KKT layout arrays: {layout_nbytes(solver._last_layout) / 1e6:.2f} MB")
    print(lines)

    plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
    for mode in ("closed_form", "monte_carlo"):
        call = partial(energy_efficiency, plan, sc, mode=mode, samples_per_slot=SAMPLES)
        report, lines = profiled(call)
        print(f"{args.scenario} {mode}: {plan.n_slots} slots, efficiency {report.efficiency!r}")
        print(lines)

    draws, arithmetic, capacity, normals, chunk = monte_carlo_layers(sc, plan, SAMPLES)
    slots = plan.n_slots
    chunks = -(-slots // chunk)
    same = np.array_equal(capacity, report.capacity_per_slot)
    print(f"{args.scenario} monte_carlo layers, one thread, {slots} slots of {SAMPLES} samples, {chunks} chunks:")
    print(f"normals drawn per sample: {normals}")
    for layer, seconds in (("draws:     ", draws), ("arithmetic:", arithmetic)):
        print(f"{layer} {seconds:.4f} s ({1e3 * seconds / chunks:.3f} ms per chunk, {1e3 * seconds / slots:.3f} ms per slot)")
    print(f"capacities equal to the energy_efficiency call: {same}")
    return 0 if same else 1


if __name__ == "__main__":
    sys.exit(main())
