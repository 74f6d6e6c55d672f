#!/usr/bin/env python3
"""Measure a parent revision against HEAD with alternating benchmark pairs.

    python3 scripts/bench_pairs.py PARENT --out BENCH_N.json
        [--first-seed 301] [--held-out-first-seed 501]

PARENT and HEAD are exported with ``git archive`` into fresh directories under
the system temporary directory, so each side runs the committed files of its
revision, and the directories are removed at the end. The workloads, the run
length T and the end-to-end metrics with their bounds are read from HEAD's
``BENCHMARK.json``, and every workload is measured. For each workload, pair i
of ten runs ``python3 bench/run.py --workload W --seed S --seconds T --trace 0``
on both sides with seed S = first_seed + i; even pairs run the parent first,
odd pairs HEAD first. With ``--held-out-first-seed``, every workload on which
HEAD shows a gain (better in at least nine of ten pairs on some metric, with
the median gap above the parent's interquartile range) is measured again on
ten pairs from those seeds.

The output holds, per side and workload, every run's end-to-end metrics with
their median and quartiles (inclusive method), the largest ``fail_frac`` and
the work counts; and per metric the comparison: medians, relative change, the
pairs the change won, the parent's interquartile range, whether the median
gap exceeds it, whether the change stays within the metric's bound, and
whether the metric is unresolved: the parent's runs spread wider than the
bound (interquartile range over median above it) and not every change run
reads better than every parent run, so the runs cannot tell a change within
the bound from one past it. Progress goes to stderr.
"""
from __future__ import annotations

import argparse
import io
import json
import re
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COUNTS = ("outer_iters", "solves", "newton_iters", "converged")
PAIRS = 10
_ROW = re.compile(r"^(\S+)\s+(\S+)\s+\S+\s+(?:lower|higher)$")


def export(rev: str, dest: Path) -> tuple[Path, str]:
    """Write the committed tree of ``rev`` to ``dest``; returns it with the full commit id."""
    commit = subprocess.run(
        ["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()
    tar = subprocess.run(["git", "archive", "--format=tar", commit], cwd=ROOT, capture_output=True, check=True).stdout
    dest.mkdir(parents=True)
    with tarfile.open(fileobj=io.BytesIO(tar)) as archive:
        archive.extractall(dest, filter="data")
    return dest, commit


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run: its JSON result, the table rows and the environment record."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed), "--seconds", str(seconds)]
    proc = subprocess.run(argv + ["--trace", "0"], cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines or not lines[-1].startswith("{"):
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()[-500:]}"}
    rows = {}
    env = None
    for line in lines[:-1]:
        if line.startswith("env "):
            env = json.loads(line[4:])
        match = _ROW.match(line)
        if match:
            token = match.group(2)
            rows[match.group(1)] = None if token == "n/a" else int(token) if token.isdigit() else float(token)
    return {"result": json.loads(lines[-1]), "rows": rows, "env": env}


def summarize(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive") if len(values) > 1 else values * 3
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def side_summary(runs: list[dict], seeds: list[int], metrics: list[str]) -> dict:
    ok = [r for r in runs if "result" in r]
    out = {"seeds": seeds}
    for name in metrics:
        out[name] = summarize([r["result"]["metrics"][name]["value"] for r in ok]) if ok else None
    out["fail_frac"] = max((r["rows"].get("fail_frac") or 0.0 for r in ok), default=None)
    counts = {}
    for key in COUNTS:
        seen = sorted({r["rows"].get(key) for r in ok}, key=str)
        counts[key] = seen[0] if len(seen) == 1 else seen
    out["counts"] = counts
    errors = [{"seed": s, "error": r["error"]} for s, r in zip(seeds, runs) if "error" in r]
    if errors:
        out["errors"] = errors
    return out


def compare(parent: list[dict], change: list[dict], spec: dict) -> dict:
    name, better, bound = spec["name"], spec["better"], spec["bound"]
    pairs = [(p, c) for p, c in zip(parent, change) if "result" in p and "result" in c]
    if not pairs:
        return {"error": "no pair finished on both sides"}
    pv = [p["result"]["metrics"][name]["value"] for p, _ in pairs]
    cv = [c["result"]["metrics"][name]["value"] for _, c in pairs]
    p_sum, c_sum = summarize(pv), summarize(cv)
    wins = sum((c < p) if better == "lower" else (c > p) for p, c in zip(pv, cv))
    limit = p_sum["median"] * (1.0 + bound if better == "lower" else 1.0 - bound)
    iqr = p_sum["q3"] - p_sum["q1"]
    all_better = max(cv) < min(pv) if better == "lower" else min(cv) > max(pv)
    return {
        "parent_median": p_sum["median"],
        "change_median": c_sum["median"],
        "relative_change": c_sum["median"] / p_sum["median"] - 1.0,
        "change_better_pairs": f"{wins}/{len(pairs)}",
        "parent_iqr": iqr,
        "median_gap_exceeds_parent_iqr": abs(c_sum["median"] - p_sum["median"]) > iqr,
        "within_bound": c_sum["median"] <= limit if better == "lower" else c_sum["median"] >= limit,
        "unresolved": iqr > bound * p_sum["median"] and not all_better,
    }


def measure(trees: dict, workloads: list[str], seeds: list[int], seconds: float, specs: list[dict]):
    """Alternating pairs on every workload: per-side summaries and the comparison, and the
    environment record of one finished run."""
    metrics = [spec["name"] for spec in specs]
    out = {"comparison": {}, "parent": {}, "change": {}}
    env = {}
    for workload in workloads:
        runs = {"parent": [], "change": []}
        for i, seed in enumerate(seeds):
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                run = run_once(trees[side], workload, seed, seconds)
                runs[side].append(run)
                env = env or run.get("env") or {}
                shown = run["result"]["metrics"]["call_s"]["value"] if "result" in run else run["error"]
                print(f"{workload} seed {seed} {side}: call_s {shown}", file=sys.stderr, flush=True)
        for side in ("parent", "change"):
            out[side][workload] = side_summary(runs[side], seeds, metrics)
        out["comparison"][workload] = {spec["name"]: compare(runs["parent"], runs["change"], spec) for spec in specs}
    return out, env


def shows_gain(comparison: dict) -> bool:
    """Whether the change is better on some metric in at least nine of ten pairs, by a median
    gap above the parent's interquartile range."""
    for result in comparison.values():
        if "error" in result:
            continue
        wins, pairs = map(int, result["change_better_pairs"].split("/"))
        if 10 * wins >= 9 * pairs and result["median_gap_exceeds_parent_iqr"]:
            return True
    return False


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", help="parent revision")
    parser.add_argument("--first-seed", type=int, default=301)
    parser.add_argument("--held-out-first-seed", type=int, default=None)
    parser.add_argument("--out", required=True, help="JSON file to write")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as tmp:
        parent_tree, parent_commit = export(args.parent, Path(tmp) / "parent")
        change_tree, change_commit = export("HEAD", Path(tmp) / "change")
        trees = {"parent": parent_tree, "change": change_tree}
        bench = json.loads((change_tree / "BENCHMARK.json").read_text())
        workloads, seconds, specs = [w["name"] for w in bench["workloads"]], bench["run_seconds"], bench["end_to_end"]
        seeds = list(range(args.first_seed, args.first_seed + PAIRS))
        main_set, env = measure(trees, workloads, seeds, seconds, specs)
        held_out = None
        if args.held_out_first_seed is not None:
            held_seeds = list(range(args.held_out_first_seed, args.held_out_first_seed + PAIRS))
            gained = [w for w in workloads if shows_gain(main_set["comparison"][w])]
            held_out, _ = measure(trees, gained, held_seeds, seconds, specs)

    caps = env.get("thread_caps", {})
    report = {
        "about": (
            f"Parent and change measured in one session on a {env.get('usable_cores')}-core host "
            f"(Python {env.get('python')}, numpy {env.get('numpy')}, scipy {env.get('scipy')}, "
            f"BLAS/OpenMP capped at {caps.get('OPENBLAS_NUM_THREADS')} threads): for each workload "
            f"{PAIRS} pairs of `python3 bench/run.py --workload W --seed S --seconds {seconds:g} "
            f"--trace 0`, seeds {seeds[0]}-{seeds[-1]}, alternating which side runs first, each side "
            "run from a `git archive` export of its commit. Timings are the harness's reference seconds."
        ),
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        **main_set,
    }
    if held_out is not None:
        report["held_out"] = {"seeds": held_seeds, **held_out}
    report["notes"] = []
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
