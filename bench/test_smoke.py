"""Fast smoke test of the benchmark harness on an N=20 mission.

    python -m pytest -q bench

Runs every workload path (timed optimize, traced optimize, timed and traced
evaluation) on tiny inputs, checks the metric names and units against
BENCHMARK.json, and checks that violated checks raise fail_frac.
"""
import json
import shutil
import subprocess
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

import harness
import hostspeed
import run
from fsotraj.kinematics import TrajectoryPlan
from fsotraj.mission import initialize_iterate
from fsotraj.scenario import load_scenario

BENCHMARK = json.loads((harness.ROOT / "BENCHMARK.json").read_text())

TINY_MOVING = """
[mission]
kind = moving
start = 54, 200 m
end = 100, 200 m
altitude = 600 m
duration = 4 s
slot = 0.2 s
[optimizer]
max_outer = 3
"""
TINY_HOVER = """
[mission]
kind = hover
altitude = 600 m
duration = 20 s
slot = 1 s
circle_center = 0, -20 m
"""


def tiny_plan_input():
    settings = load_scenario(TINY_MOVING)
    return harness.PlanInput("tiny", settings.scenario, settings.optimizer)


def tiny_items():
    items = []
    for name, text in (("tiny_moving", TINY_MOVING), ("tiny_hover", TINY_HOVER)):
        sc = load_scenario(text).scenario
        items.append(harness.EvalItem(name, sc, initialize_iterate(sc).plan(sc.delta, sc.altitude)))
    return items


def tiny_eval_prep(items):
    return harness.Prepared("evaluate", items=items, mc_seeds=np.random.default_rng(7))


def declared(kind):
    return {m["name"]: m["unit"] for m in BENCHMARK[kind]}


def test_declared_metrics_match_harness():
    assert declared("end_to_end") == {k: unit for k, (unit, _) in harness.END_TO_END.items()}
    assert declared("per_layer") == {k: unit for k, (unit, _) in harness.PER_LAYER.items()}
    assert {w["name"] for w in BENCHMARK["workloads"]} == set(harness.WORKLOADS)


def test_tiny_mission_is_small():
    assert tiny_plan_input().scenario.n_slots == 20
    assert all(item.plan.n_slots == 20 for item in tiny_items())


def test_plan_path_emits_every_metric():
    prep = harness.Prepared("tiny", plan=tiny_plan_input())
    result = harness.run_workload(prep, seconds=0.0)
    result.metrics["setup_s"] = result.report["setup_wall_s"] = 1.0  # run.py measures these
    assert set(result.metrics) == set(harness.END_TO_END)
    assert all(v > 0 for v in result.metrics.values()), result.metrics
    assert result.ledger.failed == 0, result.ledger.failures
    assert result.ledger.attempted == 3  # optimize + both evaluations of its plan
    assert all(result.report[name] is not None for name in harness.REPORT_ONLY)
    assert result.report["solves"] == result.report["outer_iters"] * 2
    assert result.report["newton_iters"] > 0


def test_plan_below_its_pin_raises_fail_frac():
    prep = harness.Prepared("tiny", plan=tiny_plan_input())
    result = harness.run_plan_workload(prep, 0.0, harness.Ledger(), 1.0, harness.HostSpeed())
    assert [f["check"] for f in result.ledger.failures] == ["efficiency_pin"]
    assert result.ledger.fail_frac == pytest.approx(1 / 3)


def test_traced_plan_layers_add_up():
    prep = harness.Prepared("tiny", plan=tiny_plan_input())
    result = harness.run_traced(prep)
    m = result.metrics
    assert set(m) == set(harness.PER_LAYER)
    assert result.ledger.failed == 0, result.ledger.failures
    self_sum = sum(row["self_s"] for name, row in result.layers.items() if name != hostspeed.SPAN)
    assert self_sum == pytest.approx(m["trace.call_s"], rel=1e-2)
    assert m["solver.calls"] == 2 * m["optimizer.tradeoff_calls"] > 0
    # the last Newton iteration of a solve only tests convergence
    assert m["solver.factor_calls"] >= m["solver.newton_iters"] - m["solver.calls"]
    assert m["program.grad_loc_calls"] > 0 and m["linearize.delta_u_calls"] > 0
    assert m["jitter.hoyt_params_calls"] == 0  # optimize never evaluates the true model
    assert m["trace.spans"] > 0 and m["trace.span_cost_s"] > 0.0


def test_evaluate_path_emits_every_metric():
    result = harness.run_workload(tiny_eval_prep(tiny_items()), seconds=0.0)
    result.metrics["setup_s"] = 1.0
    assert set(result.metrics) == set(harness.END_TO_END)
    assert result.ledger.failed == 0, result.ledger.failures
    assert result.ledger.attempted == 4
    traced = harness.run_traced(tiny_eval_prep(tiny_items()))
    assert traced.metrics["channel.quadrature_calls"] == 40
    assert traced.metrics["solver.calls"] == 0


def test_wrong_pin_raises_fail_frac():
    items = tiny_items()
    items[0] = replace(items[0], pin=2.0)
    result = harness.run_workload(tiny_eval_prep(items), seconds=0.0)
    assert result.report["fail_frac"] == pytest.approx(1 / 4)
    assert [f["check"] for f in result.ledger.failures] == ["efficiency_pin"]


def test_infeasible_plan_names_its_family():
    item = tiny_items()[1]
    positions = item.plan.positions.copy()
    positions[5, 0] += 10.0  # a 10 m jolt in 1 s slots breaks a_max = 5 m/s^2
    bad = replace(item, plan=TrajectoryPlan(positions=positions, delta=item.plan.delta, altitude=item.plan.altitude))
    result = harness.run_workload(tiny_eval_prep([bad]), seconds=0.0)
    assert result.report["fail_frac"] == 1.0
    assert {f["check"] for f in result.ledger.failures} == {"physical_constraints.acceleration"}


def test_setup_probe_reports_ready():
    setup_s, wall_s = run.measure_setup("evaluate", 3, probes=1)
    assert 0.0 < setup_s < 120.0 and 0.0 < wall_s < 60.0


def test_host_speed_sampling_is_excluded_from_timed_calls():
    speed = harness.HostSpeed()
    with speed.sampling():
        t0, c0 = time.perf_counter(), speed.clock()
        while time.perf_counter() - t0 < 1.2:
            sum(range(1000))
        wall, net = time.perf_counter() - t0, speed.clock() - c0
    assert len(speed.samples) >= 2
    assert net == pytest.approx(wall - speed.stolen, abs=1e-3)
    assert speed.factor() > 0.0


def test_run_refuses_without_program(tmp_path):
    shutil.copytree(harness.ROOT / "bench", tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(harness.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "moving", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
