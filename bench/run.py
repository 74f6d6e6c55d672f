"""fsotraj benchmark: time to a plan, plan quality and true-model evaluation.

    python3 bench/run.py --workload {moving,hover_pitch_jitter,evaluate} \
        --seed N --seconds S --trace {0,1}

Run from anywhere inside a checkout of the repository; the package is
imported from the checkout's ``src`` directory. ``--trace 0`` measures the
end-to-end metrics with tracing off, timings in reference seconds (wall
seconds scaled by the host's speed measured in the same run); ``--trace 1`` runs the workload's unit of
work once untraced and once traced and reports the per-layer metrics. Both
print a human-readable table and an environment record, then, as the last
line, one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Exits non-zero without a result if the program is missing.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_PROBES = 5
# The dependencies' import, the yardstick for set-up time, and its time on an
# idle 2-vCPU Xeon VM.
REFERENCE_IMPORT = "import numpy, scipy.sparse.linalg; print('ready', flush=True)"
SETUP_REFERENCE_S = 0.5
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


def cap_threads() -> dict[str, str]:
    """Cap BLAS/OpenMP pools at the usable cores; must run before numpy loads."""
    nproc = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    for var in THREAD_VARS:
        current = os.environ.get(var, "")
        cap = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(cap)
    return {var: os.environ[var] for var in THREAD_VARS}


def missing_program() -> list[str]:
    needed = [ROOT / "src" / "fsotraj" / "__init__.py"]
    needed += [ROOT / "scenarios" / f"{name}.ini" for name in ("hover", "hover_pitch_jitter", "moving")]
    return [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]


def source_digest() -> str:
    """SHA-256 over the package sources and bundled scenarios."""
    digest = hashlib.sha256()
    files = sorted((ROOT / "src" / "fsotraj").rglob("*.py")) + sorted((ROOT / "scenarios").glob("*.ini"))
    for path in files:
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10, check=True
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() or None


def environment(seed: int, caps: dict[str, str]) -> dict:
    import numpy
    import scipy

    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "thread_caps": caps,
        "seed": seed,
    }


def _time_to_ready(argv: list[str]) -> float:
    """Wall seconds from spawning ``argv`` to its ``ready`` line."""
    t0 = time.perf_counter()
    with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t0
            proc.wait(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{argv[1]} failed with code {proc.returncode}")
    return elapsed


def measure_setup(workload: str, seed: int, probes: int = SETUP_PROBES) -> tuple[float, float]:
    """Set-up time of fresh interpreters: (median in reference seconds, median wall).

    Each probe runs from spawning the interpreter to the workload's set-up
    done. It is scaled by a fresh interpreter importing numpy and scipy,
    timed just before it, to SETUP_REFERENCE_S. That import is most of the
    set-up and slows with the host as the set-up does; the compute kernel in
    hostspeed.py does not track interpreter start-up.
    """
    walls, scaled = [], []
    for _ in range(probes):
        reference = _time_to_ready([sys.executable, "-c", REFERENCE_IMPORT])
        wall = _time_to_ready([sys.executable, str(BENCH / "setup_probe.py"), workload, str(seed)])
        walls.append(wall)
        scaled.append(SETUP_REFERENCE_S * wall / reference)
    return statistics.median(scaled), statistics.median(walls)


def _fmt(value) -> str:
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def print_report(args, harness, hostspeed, result, env) -> None:
    print(f"# fsotraj benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print("env " + json.dumps(env, sort_keys=True))
    if args.trace:
        specs = harness.PER_LAYER
        values = result.metrics
    else:
        specs = {**harness.END_TO_END, **harness.REPORT_ONLY}
        values = {**result.report, **result.metrics}
    print(f"{'metric':32s} {'value':>14s}  {'unit':12s} better")
    for name, (unit, better) in specs.items():
        print(f"{name:32s} {_fmt(values.get(name)):>14s}  {unit:12s} {better}")
    extras = {k: v for k, v in result.report.items() if k not in specs}
    if extras:
        print("detail " + json.dumps(extras, sort_keys=True))
    baseline = harness.BASELINE_COUNTS.get(args.workload)
    if baseline and not args.trace:
        print("baseline counts " + json.dumps(baseline))
    if args.trace:
        print(f"{'span':28s} {'calls':>9s} {'self_s':>10s} {'total_s':>10s}")
        for name, row in sorted(result.layers.items(), key=lambda kv: -kv[1]["self_s"]):
            print(f"{name:28s} {row['calls']:9d} {row['self_s']:10.4f} {row['total_s']:10.4f}")
        self_sum = sum(row["self_s"] for name, row in result.layers.items() if name != hostspeed.SPAN)
        m = result.metrics
        print(
            f"layer self times sum to {self_sum:.4f} s of the traced {m['trace.call_s']:.4f} s; "
            f"untraced {m['trace.untraced_call_s']:.4f} s, tracing overhead {m['trace.overhead_s']:.4f} s "
            f"(untraced time rescaled to the traced call's host speed); "
            f"{m['trace.spans']} spans at a wrapper cost of {m['trace.span_cost_s']:.4f} s"
        )
    ledger = result.ledger
    print(f"checks: {ledger.attempted} calls attempted, {ledger.failed} failed (fail_frac {ledger.fail_frac:.4g})")
    for failure in ledger.failures:
        print(f"FAILED {failure['check']} (call {failure['call']}): {failure['detail']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    missing = missing_program()
    if missing:
        print(f"fsotraj sources not found under {ROOT}: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    caps = cap_threads()
    import harness  # after the thread caps: it loads numpy
    import hostspeed

    if args.workload not in harness.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(harness.WORKLOADS)}")
    env = environment(args.seed, caps)
    prep = harness.prepare(args.workload, args.seed)
    if args.trace:
        result = harness.run_traced(prep)
    else:
        setup_s, setup_wall_s = measure_setup(args.workload, args.seed)
        result = harness.run_workload(prep, args.seconds)
        result.metrics["setup_s"] = setup_s
        result.report["setup_wall_s"] = setup_wall_s
    specs = harness.PER_LAYER if args.trace else harness.END_TO_END
    print_report(args, harness, hostspeed, result, env)
    ledger = result.ledger
    out = {
        "correct": ledger.failed == 0,
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": result.metrics[name], "unit": unit} for name, (unit, _) in specs.items()},
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
