"""Workloads, correctness checks and metrics of the fsotraj benchmark.

The benchmark drives the package from outside, through the public functions
``optimizer.optimize`` and ``optimizer.energy_efficiency``, one call at a
time in one process (a closed loop with one client).

Workloads
---------
``moving``, ``hover_pitch_jitter``
    ``optimize`` on the bundled scenario. The planner is deterministic, so
    these do not depend on the seed. Every plan is then evaluated once in
    each mode of ``energy_efficiency``; those calls are the checks, and they
    also give the evaluation rates on these workloads.
``evaluate``
    ``energy_efficiency`` in ``closed_form`` and ``monte_carlo`` mode on
    feasible plans only: the bundled scenarios' initial plans plus an N=400
    hover loop whose circle centre is drawn from the seed. The seed also
    drives the Monte Carlo stream. No solver is called.

Which layer moves which metric
------------------------------
``call_s`` is one ``optimize`` call on the optimize workloads and one N=400
plan evaluated in both modes on ``evaluate``.

* optimizer (``outer_self_s``, ``tradeoff_*``, ``solves_per_search``):
  ``call_s`` on both optimize workloads; nothing on ``evaluate``.
* subproblem, solver, program: ``call_s`` on the optimize workloads, most on
  ``hover_pitch_jitter``, whose KKT factorization is the largest cost.
* mission / linearize: ``call_s`` everywhere, through ``pointing_geometry``.
* jitter / channel / kinematics: ``call_s`` on ``evaluate`` and the printed
  evaluation rates; nothing on the optimize workloads' ``call_s``, because
  ``optimize`` does not call them.
"""
from __future__ import annotations

import math
import resource
import statistics
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCENARIOS = ROOT / "scenarios"
BUNDLED = ("hover", "hover_pitch_jitter", "moving")

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

from fsotraj import optimizer as opt  # noqa: E402
from fsotraj.errors import InfeasibleScenarioError  # noqa: E402
from fsotraj.kinematics import differentiate_trajectory  # noqa: E402
from fsotraj.mission import CircularInit, initialize_iterate, physical_violations  # noqa: E402
from fsotraj.scenario import load_scenario  # noqa: E402

from hostspeed import HostSpeed  # noqa: E402
from tracer import SolveCensus, Tracer, span_cost  # noqa: E402

WORKLOADS = ("moving", "hover_pitch_jitter", "evaluate")
MODES = ("closed_form", "monte_carlo")

# True-model efficiency (bit/J) of each optimize workload's final plan. A plan
# that scores lower by more than EFFICIENCY_RTOL fails the pin check; a higher
# score passes and is reported as a deviation.
PINNED_PLAN_EFFICIENCY = {
    "moving": 3.717682719912525e-04,
    "hover_pitch_jitter": 3.8514290023042714e-04,
}
# Closed-form efficiency of the bundled initial plans: a pure function of the
# plan, so it must reproduce to EFFICIENCY_RTOL either way.
PINNED_INITIAL_EFFICIENCY = {
    "hover": 3.6405261959499626e-04,
    "hover_pitch_jitter": 3.5042539771628544e-04,
    "moving": 3.471005001080693e-04,
}
EFFICIENCY_RTOL = 1e-9
# Monte Carlo against quadrature; the observed gap at 20k samples per slot is
# below 5e-4 relative.
MC_RTOL = 1e-2
# Work counts measured when the benchmark was defined; reported, not checked,
# because later changes are meant to lower them.
BASELINE_COUNTS = {
    "moving": {"outer_iters": 36, "solves": 72, "newton_iters": 1516},
    "hover_pitch_jitter": {"outer_iters": 50, "solves": 100, "newton_iters": 2050},
}

# name -> (unit, better). The JSON result carries END_TO_END with --trace 0
# and PER_LAYER with --trace 1; REPORT_ONLY metrics are printed in the table.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "call_s": ("s", "lower"),
    "efficiency_true": ("bit/J", "higher"),
    "peak_rss_mb": ("MB", "lower"),
}
REPORT_ONLY = {
    "setup_wall_s": ("s", "lower"),
    "host_factor": ("ratio", "lower"),
    "plan_s": ("s", "lower"),
    "outer_iters": ("count", "lower"),
    "solves": ("count", "lower"),
    "newton_iters": ("count", "lower"),
    "converged": ("0/1", "higher"),
    "eval_cf_slots_per_s": ("slot/s", "higher"),
    "eval_mc_slots_per_s": ("slot/s", "higher"),
    "fail_frac": ("ratio", "lower"),
}
PER_LAYER = {
    "optimizer.outer_self_s": ("s", "lower"),
    "optimizer.outer_iters": ("count", "lower"),
    "optimizer.converged": ("0/1", "higher"),
    "optimizer.tradeoff_s": ("s", "lower"),
    "optimizer.tradeoff_calls": ("count", "lower"),
    "optimizer.solves_per_search": ("solve/search", "lower"),
    "optimizer.eval_s": ("s", "lower"),
    "optimizer.eval_calls": ("count", "lower"),
    "subproblem.build_s": ("s", "lower"),
    "subproblem.build_calls": ("count", "lower"),
    "subproblem.log_anchor_s": ("s", "lower"),
    "solver.solve_s": ("s", "lower"),
    "solver.calls": ("count", "lower"),
    "solver.newton_iters": ("count", "lower"),
    "solver.newton_per_solve": ("step/solve", "lower"),
    "solver.nonoptimal": ("count", "lower"),
    "solver.factor_s": ("s", "lower"),
    "solver.factor_calls": ("count", "lower"),
    "solver.self_s": ("s", "lower"),
    "program.values_s": ("s", "lower"),
    "program.values_calls": ("count", "lower"),
    "program.grad_loc_s": ("s", "lower"),
    "program.grad_loc_calls": ("count", "lower"),
    "program.hess_loc_s": ("s", "lower"),
    "program.hess_loc_calls": ("count", "lower"),
    "program.objective_s": ("s", "lower"),
    "mission.tight_iterate_s": ("s", "lower"),
    "mission.pointing_geometry_s": ("s", "lower"),
    "linearize.delta_u_calls": ("count", "lower"),
    "jitter.hoyt_params_s": ("s", "lower"),
    "jitter.hoyt_params_calls": ("count", "lower"),
    "channel.quadrature_s": ("s", "lower"),
    "channel.quadrature_calls": ("count", "lower"),
    "channel.mc_capacity_s": ("s", "lower"),
    "kinematics.flight_power_s": ("s", "lower"),
    "trace.call_s": ("s", "lower"),
    "trace.untraced_call_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.spans": ("count", "lower"),
    "trace.span_cost_s": ("s", "lower"),
}


# ---------------------------------------------------------------- inputs


@dataclass
class PlanInput:
    """One bundled scenario to optimize."""

    name: str
    scenario: object
    config: object


@dataclass
class EvalItem:
    """One feasible plan to evaluate, with its pinned efficiency if any."""

    name: str
    scenario: object
    plan: object
    pin: float | None = None


@dataclass
class Prepared:
    workload: str
    plan: PlanInput | None = None  # optimize workloads
    items: list[EvalItem] = field(default_factory=list)  # evaluate
    mc_seeds: np.random.Generator | None = None


def prepare(workload: str, seed: int) -> Prepared:
    """Everything a run needs before its first timed call (the set-up)."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")
    if workload != "evaluate":
        settings = load_scenario(str(SCENARIOS / f"{workload}.ini"))
        initialize_iterate(settings.scenario)
        return Prepared(workload, plan=PlanInput(workload, settings.scenario, settings.optimizer))
    items = []
    for name in BUNDLED:
        sc = load_scenario(str(SCENARIOS / f"{name}.ini")).scenario
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        items.append(EvalItem(name, sc, plan, PINNED_INITIAL_EFFICIENCY[name]))
    items.append(seeded_loop(items[0].scenario, np.random.default_rng(seed), "seeded_loop"))
    return Prepared(workload, items=items, mc_seeds=np.random.default_rng([seed, 1]))


def seeded_loop(base, rng: np.random.Generator, name: str) -> EvalItem:
    """A closed loop through the base start point around a random centre.

    A radius in [50, 150] m keeps the 80 s loop between 3.9 and 11.8 m/s with
    at most 0.93 m/s^2 of centripetal acceleration, inside every default
    airframe limit, so initialize_iterate accepts it.
    """
    angle = rng.uniform(0.0, 2.0 * math.pi)
    radius = rng.uniform(50.0, 150.0)
    centre = (base.start[0] + radius * math.cos(angle), base.start[1] + radius * math.sin(angle))
    sc = replace(base, initialization=CircularInit(center_xy=centre))
    return EvalItem(name, sc, initialize_iterate(sc).plan(sc.delta, sc.altitude))


# ---------------------------------------------------------------- checks


class Ledger:
    """Calls attempted and the checks each one failed, by name."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[dict] = []

    def call(self) -> int:
        self.attempted += 1
        return self.attempted

    def fail(self, call_id: int, check: str, detail: str) -> None:
        self.failures.append({"call": call_id, "check": check, "detail": detail})

    @property
    def failed(self) -> int:
        return len({f["call"] for f in self.failures})

    @property
    def fail_frac(self) -> float:
        return self.failed / max(self.attempted, 1)


def violated_family(plan, scenario) -> str:
    """Name of the physical-constraint family a plan violates most."""
    v, a = differentiate_trajectory(plan)
    violations = physical_violations(scenario, plan.positions, v, a)
    return max(violations, key=violations.get)


@dataclass
class EvalCall:
    item: EvalItem
    mode: str
    seconds: float
    efficiency: float | None
    call_id: int


def timed_eval(
    item: EvalItem, mode: str, seed, ledger: Ledger, speed: HostSpeed, tracer: Tracer | None = None
) -> EvalCall:
    """One energy_efficiency call; a raise is a failed call, named by family."""
    call_id = ledger.call()
    t0 = speed.clock()
    try:
        if tracer is None:
            report = opt.energy_efficiency(item.plan, item.scenario, mode=mode, seed=seed)
        else:
            with tracer.span("optimizer.eval"):
                report = opt.energy_efficiency(item.plan, item.scenario, mode=mode, seed=seed)
        eff = report.efficiency
    except InfeasibleScenarioError as exc:
        eff = None
        ledger.fail(call_id, f"physical_constraints.{violated_family(item.plan, item.scenario)}", str(exc))
    except Exception as exc:  # the benchmark keeps running and reports the failure
        eff = None
        ledger.fail(call_id, "energy_efficiency_raised", f"{type(exc).__name__}: {exc}")
    return EvalCall(item, mode, speed.clock() - t0, eff, call_id)


def check_eval_pair(cf: EvalCall, mc: EvalCall, ledger: Ledger) -> None:
    """Pinned closed form, and Monte Carlo agreeing with it."""
    if cf.efficiency is not None and cf.item.pin is not None:
        rel = abs(cf.efficiency - cf.item.pin) / cf.item.pin
        if rel > EFFICIENCY_RTOL:
            ledger.fail(cf.call_id, "efficiency_pin", f"{cf.item.name}: {cf.efficiency!r} vs pin {cf.item.pin!r}")
    if cf.efficiency is not None and mc.efficiency is not None:
        rel = abs(mc.efficiency - cf.efficiency) / cf.efficiency
        if rel > MC_RTOL:
            ledger.fail(mc.call_id, "mc_vs_closed_form", f"{mc.item.name}: relative gap {rel:.3g} > {MC_RTOL}")


@dataclass
class PlanCall:
    seconds: float
    result: object | None
    census: SolveCensus
    call_id: int
    efficiency_true: float | None = None
    evals: list[EvalCall] = field(default_factory=list)


def timed_plan(inp: PlanInput, ledger: Ledger, speed: HostSpeed, tracer: Tracer | None = None) -> PlanCall:
    """One optimize call with the solve census on; tracing only if given."""
    call_id = ledger.call()
    census = SolveCensus()
    result = None
    t0 = speed.clock()
    try:
        if tracer is None:
            with census.installed():
                result = opt.optimize(inp.scenario, inp.config)
        else:
            with tracer.installed(census), tracer.span("optimizer.optimize"):
                result = opt.optimize(inp.scenario, inp.config)
    except Exception as exc:  # the benchmark keeps running and reports the failure
        ledger.fail(call_id, "optimize_raised", f"{type(exc).__name__}: {exc}")
    return PlanCall(speed.clock() - t0, result, census, call_id)


def check_plan(inp: PlanInput, call: PlanCall, pin: float | None, mc_seed, ledger: Ledger, speed: HostSpeed) -> None:
    """Evaluate the final plan in both modes and run the plan's checks."""
    if call.result is None:
        return
    item = EvalItem(inp.name, inp.scenario, call.result.plan, pin=None)
    cf = timed_eval(item, "closed_form", None, ledger, speed)
    mc = timed_eval(item, "monte_carlo", mc_seed, ledger, speed)
    call.evals = [cf, mc]
    check_eval_pair(cf, mc, ledger)
    call.efficiency_true = cf.efficiency
    if cf.efficiency is None:
        ledger.fail(call.call_id, "final_plan_evaluation", "energy_efficiency raised on the final plan")
        return
    surrogate = call.result.history[-1].efficiency
    if not surrogate <= cf.efficiency:
        ledger.fail(call.call_id, "surrogate_below_true", f"surrogate {surrogate!r} > true {cf.efficiency!r}")
    try:
        report = opt.anchored_feasibility(call.result.iterate, inp.scenario, inp.config)
    except Exception as exc:  # a check that cannot run has failed
        ledger.fail(call.call_id, "anchored_feasibility", f"{type(exc).__name__}: {exc}")
    else:
        if not report.feasible:
            ledger.fail(call.call_id, "anchored_feasibility", f"worst {report.worst_tags(3)}")
    if pin is not None and cf.efficiency < pin * (1.0 - EFFICIENCY_RTOL):
        ledger.fail(call.call_id, "efficiency_pin", f"{cf.efficiency!r} below pin {pin!r}")


# ---------------------------------------------------------------- runs


@dataclass
class RunResult:
    metrics: dict[str, float]
    report: dict[str, float | None]
    ledger: Ledger
    layers: dict | None = None


def _eval_rates(calls: list[EvalCall]) -> dict[str, float]:
    """Slots per second of each mode over the run: total slots / total time."""
    rates = {}
    for mode, key in zip(MODES, ("eval_cf_slots_per_s", "eval_mc_slots_per_s")):
        ok = [c for c in calls if c.mode == mode and c.efficiency is not None]
        busy = sum(c.seconds for c in ok)
        rates[key] = sum(c.item.plan.n_slots for c in ok) / busy if busy else 0.0
    return rates


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_plan_workload(prep: Prepared, seconds: float, ledger: Ledger, pin: float | None, speed: HostSpeed) -> RunResult:
    """Timed optimize calls until ``seconds`` have passed (at least one)."""
    inp = prep.plan
    calls = []
    start = time.perf_counter()
    with speed.sampling():
        while not calls or time.perf_counter() - start < seconds:
            calls.append(timed_plan(inp, ledger, speed))
    for i, call in enumerate(calls):
        check_plan(inp, call, pin, i, ledger, speed)
    return _plan_result(calls, ledger, speed)


def _mean(values) -> float:
    """Run-level timings are means: the host alternates between fast and
    slow phases, and the median of a few samples jumps between the two while
    the mean averages them."""
    return statistics.fmean(values) if values else 0.0


def _plan_result(calls: list[PlanCall], ledger: Ledger, speed: HostSpeed) -> RunResult:
    done = [c for c in calls if c.result is not None]
    first = done[0] if done else None
    effs = [c.efficiency_true for c in done if c.efficiency_true is not None]
    plan_s = _mean([c.seconds for c in calls])
    metrics = {"call_s": plan_s / speed.factor(), "efficiency_true": effs[0] if effs else 0.0}
    report = {
        "plan_s": plan_s,
        "outer_iters": len(first.result.history) if first else None,
        "solves": sum(r.solves for r in first.result.history) if first else None,
        "newton_iters": first.census.newton_iters if first else None,
        "converged": int(first.result.converged) if first else None,
        **_eval_rates([e for c in calls for e in c.evals]),
        "host_factor": speed.factor(),
        "solver_nonoptimal": first.census.nonoptimal if first else None,
        "solver_statuses": dict(first.census.statuses) if first else None,
        "plan_calls": len(calls),
        "kernel_samples": len(speed.samples),
    }
    return RunResult(metrics, report, ledger)


def eval_pass(
    prep: Prepared, seeds: list[int], ledger: Ledger, speed: HostSpeed, tracer: Tracer | None = None
) -> list[EvalCall]:
    """Every item once in each mode; Monte Carlo seeds taken in order."""
    calls = []
    for item, seed in zip(prep.items, seeds):
        cf = timed_eval(item, "closed_form", None, ledger, speed, tracer)
        mc = timed_eval(item, "monte_carlo", seed, ledger, speed, tracer)
        check_eval_pair(cf, mc, ledger)
        calls += [cf, mc]
    return calls


def _mc_seeds(prep: Prepared) -> list[int]:
    return [int(s) for s in prep.mc_seeds.integers(0, 2**32, size=len(prep.items))]


def run_eval_workload(prep: Prepared, seconds: float, ledger: Ledger, speed: HostSpeed) -> RunResult:
    """Whole passes over the plan set until ``seconds`` have passed."""
    calls = []
    start = time.perf_counter()
    with speed.sampling():
        while not calls or time.perf_counter() - start < seconds:
            calls += eval_pass(prep, _mc_seeds(prep), ledger, speed)
    return _eval_result(calls, ledger, speed)


def _eval_result(calls: list[EvalCall], ledger: Ledger, speed: HostSpeed) -> RunResult:
    """call_s is the time to evaluate one N=400 plan in both modes."""
    pairs = [cf.seconds + mc.seconds for cf, mc in zip(calls[::2], calls[1::2]) if cf.item.plan.n_slots == 400]
    bundled = {c.item.name: c.efficiency for c in calls if c.mode == "closed_form" and c.item.pin is not None}
    metrics = {
        "call_s": _mean(pairs) / speed.factor(),
        "efficiency_true": bundled.get("hover_pitch_jitter") or 0.0,
    }
    report = {
        **_eval_rates(calls),
        "host_factor": speed.factor(),
        "pair_wall_s": _mean(pairs),
        "n400_pairs": len(pairs),
        "eval_calls": len(calls),
        "slots_evaluated": sum(c.item.plan.n_slots for c in calls),
        "kernel_samples": len(speed.samples),
    }
    return RunResult(metrics, report, ledger)


def run_workload(prep: Prepared, seconds: float) -> RunResult:
    """The timed run: tracing off, host speed sampled during the calls."""
    ledger = Ledger()
    speed = HostSpeed()
    if prep.workload == "evaluate":
        result = run_eval_workload(prep, seconds, ledger, speed)
    else:
        result = run_plan_workload(prep, seconds, ledger, PINNED_PLAN_EFFICIENCY.get(prep.workload), speed)
    result.metrics["peak_rss_mb"] = peak_rss_mb()
    result.report["fail_frac"] = ledger.fail_frac
    return result


def _sampled(speed: HostSpeed, work, tracer: Tracer | None = None):
    """Run ``work()`` under host-speed sampling: (result, net seconds, host factor)."""
    first = len(speed.samples)
    with speed.sampling(tracer):
        t0 = speed.clock()
        out = work()
        seconds = speed.clock() - t0
    return out, seconds, speed.factor(speed.samples[first:])


def run_traced(prep: Prepared) -> RunResult:
    """One untraced and one traced call of the workload's unit of work.

    The unit is one ``optimize`` call on the optimize workloads and one pass
    over the plan set on ``evaluate``. Both are timed in wall seconds net of
    host-speed sampling; the traced call's spans give the per-layer self
    times, which add up to its time. The tracing overhead is the traced time
    minus the untraced time rescaled to the traced call's host speed; on a
    noisy host that difference is uncertain by a few percent of the call, so
    the spans' own cost, the span count times a wrapped no-op's extra time,
    is reported next to it.
    """
    ledger = Ledger()
    tracer = Tracer()
    speed = HostSpeed()
    census = SolveCensus()
    result = None
    if prep.workload == "evaluate":
        seeds = _mc_seeds(prep)
        _, untraced, f_untraced = _sampled(speed, lambda: eval_pass(prep, seeds, ledger, speed))

        def traced_pass():
            with tracer.installed(census):
                eval_pass(prep, seeds, ledger, speed, tracer)

        _, traced, f_traced = _sampled(speed, traced_pass, tracer)
    else:
        inp = prep.plan
        plain, untraced, f_untraced = _sampled(speed, lambda: timed_plan(inp, ledger, speed))
        call, traced, f_traced = _sampled(speed, lambda: timed_plan(inp, ledger, speed, tracer), tracer)
        pin = PINNED_PLAN_EFFICIENCY.get(prep.workload)
        for i, c in enumerate((plain, call)):
            check_plan(inp, c, pin, i, ledger, speed)
        census, result = call.census, call.result
    layers = tracer.layer_table()
    metrics = layer_metrics(layers, census, tracer, result, untraced, traced)
    metrics["trace.overhead_s"] = traced - untraced * f_traced / f_untraced
    metrics["trace.span_cost_s"] = len(tracer.spans) * span_cost()
    return RunResult(metrics, {"fail_frac": ledger.fail_frac}, ledger, layers)


def layer_metrics(layers, census: SolveCensus, tracer: Tracer, result, untraced: float, traced: float) -> dict:
    def self_s(name):
        return layers.get(name, {}).get("self_s", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    searches = calls("optimizer.tradeoff")
    return {
        "optimizer.outer_self_s": self_s("optimizer.optimize"),
        "optimizer.outer_iters": len(result.history) if result else 0,
        "optimizer.converged": int(result.converged) if result else 0,
        "optimizer.tradeoff_s": self_s("optimizer.tradeoff"),
        "optimizer.tradeoff_calls": searches,
        "optimizer.solves_per_search": census.calls / searches if searches else 0.0,
        "optimizer.eval_s": self_s("optimizer.eval"),
        "optimizer.eval_calls": calls("optimizer.eval"),
        "subproblem.build_s": self_s("subproblem.build"),
        "subproblem.build_calls": calls("subproblem.build"),
        "subproblem.log_anchor_s": self_s("subproblem.log_anchor"),
        "solver.solve_s": layers.get("solver.solve", {}).get("total_s", 0.0),
        "solver.calls": census.calls,
        "solver.newton_iters": census.newton_iters,
        "solver.newton_per_solve": census.newton_iters / census.calls if census.calls else 0.0,
        "solver.nonoptimal": census.nonoptimal,
        "solver.factor_s": self_s("solver.factor"),
        "solver.factor_calls": calls("solver.factor"),
        "solver.self_s": self_s("solver.solve"),
        "program.values_s": self_s("program.values"),
        "program.values_calls": calls("program.values"),
        "program.grad_loc_s": self_s("program.grad_loc"),
        "program.grad_loc_calls": calls("program.grad_loc"),
        "program.hess_loc_s": self_s("program.hess_loc"),
        "program.hess_loc_calls": calls("program.hess_loc"),
        "program.objective_s": self_s("program.objective"),
        "mission.tight_iterate_s": self_s("mission.tight_iterate"),
        "mission.pointing_geometry_s": self_s("mission.pointing_geometry"),
        "linearize.delta_u_calls": tracer.counts["linearize.delta_u"],
        "jitter.hoyt_params_s": self_s("jitter.hoyt_params"),
        "jitter.hoyt_params_calls": calls("jitter.hoyt_params"),
        "channel.quadrature_s": self_s("channel.quadrature"),
        "channel.quadrature_calls": calls("channel.quadrature"),
        "channel.mc_capacity_s": self_s("channel.mc_capacity"),
        "kinematics.flight_power_s": self_s("kinematics.flight_power"),
        "trace.call_s": traced,
        "trace.untraced_call_s": untraced,
        "trace.overhead_s": 0.0,  # set by run_traced
        "trace.spans": len(tracer.spans),
        "trace.span_cost_s": 0.0,  # set by run_traced
    }
