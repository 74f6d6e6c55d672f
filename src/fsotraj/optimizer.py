"""Outer trajectory optimization: a Dinkelbach step with bisection fallback
inside, successive convex restriction outside, plus the honest (non-surrogate)
energy-efficiency evaluation used to judge results.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

from .channel import mc_ergodic_capacity, quadrature_ergodic_capacity
from .convex import check_feasible, solve
from .convex.solver import require_optimal
from .errors import BracketError, InfeasibleScenarioError
# hoyt_params stays bound here because bench/tracer.py installs its
# jitter.hoyt_params span on this name; the evaluation uses hoyt_eigenvalues.
from .jitter import HoytParams, hoyt_eigenvalues, hoyt_params  # noqa: F401
from .kinematics import TrajectoryPlan, differentiate_trajectory, flight_power
from .mission import (
    Iterate,
    OptimizerConfig,
    Scenario,
    initialize_iterate,
    physical_violations,
    pointing_geometry,
)
from .subproblem import Subproblem


@dataclass
class DinkelbachResult:
    iterate: Iterate
    lam_star: float
    f_value: float
    c_tot: float
    p_tot: float
    solves: int
    newton_iters: int  # summed over the search's solves
    bisection_fallback: bool  # the Dinkelbach step missed |F| <= tol or was skipped


@dataclass
class IterationRecord:
    iteration: int
    lam_star: float
    c_tot: float
    p_tot: float
    efficiency: float
    step_norm: float
    max_violation: float
    solves: int
    newton_iters: int
    bisection_fallback: bool


@dataclass
class OptimizeResult:
    plan: TrajectoryPlan
    iterate: Iterate
    history: list[IterationRecord]
    converged: bool
    wall_time: float = 0.0


@dataclass
class EfficiencyReport:
    """True-model mission efficiency: total capacity over total power proxy."""

    efficiency: float
    capacity_total: float
    power_total: float
    capacity_per_slot: np.ndarray
    power_per_slot: np.ndarray
    mode: str


def bisect_tradeoff(evaluate, lam_lo, lam_hi, tol_f, max_iter, f_lo=None, doublings=0):
    """Root-find F(lam) = 0 by bisection, F nondecreasing in lam.

    ``evaluate(lam)`` returns (F value, payload); the root is where the
    fractional objective's numerator and weighted denominator balance.
    ``f_lo`` is F(lam_lo) when already known, which saves its solve.
    Returns (lam, F, payload) of the last solve, with |F| <= tol_f.
    Raises BracketError when F does not change sign on the bracket, or when
    ``max_iter`` bisection solves end with |F| > tol_f.
    """
    if f_lo is None:
        f_lo, _ = evaluate(lam_lo)
    f_hi, _ = evaluate(lam_hi)
    for _ in range(doublings):
        if f_hi > 0.0:
            break
        lam_hi *= 2.0
        f_hi, _ = evaluate(lam_hi)
    if not (f_lo < 0.0 < f_hi):
        raise BracketError(
            f"no sign change on [{lam_lo:.3g}, {lam_hi:.3g}]: F = ({f_lo:.3g}, {f_hi:.3g})",
            f_lo=f_lo,
            f_hi=f_hi,
        )
    lam, f_val = 0.5 * (lam_lo + lam_hi), None
    for _ in range(max_iter):
        lam = 0.5 * (lam_lo + lam_hi)
        f_val, payload = evaluate(lam)
        if abs(f_val) <= tol_f:
            return lam, f_val, payload
        if f_val > 0.0:
            lam_hi = lam
        else:
            lam_lo = lam
    raise BracketError(
        f"bisection ended after {max_iter} solves at lam = {lam:.6g} with F = {f_val}, "
        f"not within tol_f = {tol_f:.3g}",
        f_lo=f_lo,
        f_hi=f_hi,
        lam=lam,
        f=f_val,
        tol_f=tol_f,
    )


def dinkelbach_solve(
    iterate: Iterate,
    scenario: Scenario,
    config: OptimizerConfig | None = None,
    subproblem: Subproblem | None = None,
) -> DinkelbachResult:
    """Trade-off weight lam with |F(lam)| <= tol, F(lam) = min(-C + lam P).

    The root is the efficiency of the restricted problem. The search first
    takes one Dinkelbach step (Dinkelbach 1967): a solve at the anchor's
    surrogate efficiency C_anchor / P_anchor, warm-started from the anchor.
    The anchor is feasible for its own restriction, so F(C_anchor / P_anchor)
    <= 0, and near a fixed point of the restriction loop this one solve
    already meets the tolerance. Otherwise the search falls back to bisection
    with C_anchor / P_anchor as the lower bracket end. When C_anchor / P_anchor
    lies outside the configured bracket [lambda_min, lambda_max], the step is
    skipped and the configured bracket is bisected.

    Every solve must end ``optimal``; any other status raises SolverError
    naming the status, the trade-off weight and the KKT residuals.
    """
    config = config or OptimizerConfig()
    sub = subproblem or Subproblem(iterate, scenario, config)
    anchor_x = sub.anchor_x()

    c_anchor, p_anchor = sub.surrogate_totals(sub.space.unpack(anchor_x))
    if c_anchor <= 0.0:
        raise InfeasibleScenarioError(
            f"anchor capacity {c_anchor:.3g} is not positive; the fractional objective is ill-posed"
        )
    tol_f = config.tol_dinkelbach_rel * p_anchor

    warm = anchor_x
    solves = 0
    newton_iters = 0

    def f_at(lam):
        nonlocal warm, solves, newton_iters
        sub.set_tradeoff(lam)
        sol = solve(sub.program, tol=config.solver_tol, max_iter=config.solver_max_iter, x0=warm)
        solves += 1
        newton_iters += sol.iterations
        require_optimal(sol, f"at trade-off {lam:.6g}")
        warm = sol.x
        return sol.objective, sol

    lam_lo = config.lambda_min
    lam_hi = config.lambda_max if config.lambda_max is not None else 2.0 * c_anchor / p_anchor
    # A feasible anchor certifies F(0) <= -C_anchor < 0 without a solve.
    f_lo = -c_anchor if lam_lo == 0.0 else None
    lam_star = c_anchor / p_anchor
    fallback = True
    if lam_lo < lam_star < lam_hi:
        f_val, sol = f_at(lam_star)
        fallback = abs(f_val) > tol_f
        # F(lam_star) <= 0 bounds the root from below.
        lam_lo, f_lo = lam_star, f_val
    if fallback:
        lam_star, f_val, sol = bisect_tradeoff(
            f_at, lam_lo, lam_hi, tol_f, config.max_inner, f_lo=f_lo, doublings=config.bracket_doublings
        )

    c_tot, p_tot = sub.surrogate_totals(sol.values)
    return DinkelbachResult(
        iterate=sub.solution_iterate(sol.values),
        lam_star=lam_star,
        f_value=f_val,
        c_tot=c_tot,
        p_tot=p_tot,
        solves=solves,
        newton_iters=newton_iters,
        bisection_fallback=fallback,
    )


def optimize(
    scenario: Scenario, config: OptimizerConfig | None = None, callback=None
) -> OptimizeResult:
    """Run the full restriction loop from the scenario's initial trajectory."""
    config = config or OptimizerConfig()
    t0 = time.perf_counter()
    current = initialize_iterate(scenario)
    history: list[IterationRecord] = []
    converged = False

    for p in range(1, config.max_outer + 1):
        sub = Subproblem(current, scenario, config)
        result = dinkelbach_solve(current, scenario, config, subproblem=sub)
        nxt = result.iterate

        step = float(
            np.linalg.norm(nxt.flat_original() - current.flat_original())
        ) + float(np.linalg.norm(nxt.flat_auxiliary() - current.flat_auxiliary()))
        violations = physical_violations(scenario, nxt.s, nxt.v, nxt.a)
        worst = max(violations.values())
        record = IterationRecord(
            iteration=p,
            lam_star=result.lam_star,
            c_tot=result.c_tot,
            p_tot=result.p_tot,
            efficiency=result.c_tot / result.p_tot,
            step_norm=step,
            max_violation=worst,
            solves=result.solves,
            newton_iters=result.newton_iters,
            bisection_fallback=result.bisection_fallback,
        )
        history.append(record)
        if callback is not None:
            callback(record)
        if worst > 100.0 * config.feasibility_tol:
            warnings.warn(
                f"iterate {p} violates {max(violations, key=violations.get)} by {worst:.3g}",
                RuntimeWarning,
                stacklevel=2,
            )
        current = nxt
        if step < config.tol_outer:
            converged = True
            break
        if len(history) >= config.plateau_window + 1:
            recent = [r.efficiency for r in history[-(config.plateau_window + 1) :]]
            spread = (max(recent) - min(recent)) / max(abs(recent[-1]), 1e-300)
            if spread < config.tol_efficiency_rel:
                converged = True
                break

    plan = current.plan(scenario.delta, scenario.altitude)
    return OptimizeResult(
        plan=plan,
        iterate=current,
        history=history,
        converged=converged,
        wall_time=time.perf_counter() - t0,
    )


def energy_efficiency(
    plan: TrajectoryPlan,
    scenario: Scenario,
    mode: str = "closed_form",
    samples_per_slot: int = 20_000,
    seed: int | None = None,
    feasibility_tol: float = 1e-6,
) -> EfficiencyReport:
    """Mission efficiency under the true channel model (no surrogate).

    closed_form evaluates the ergodic capacity by deterministic quadrature;
    monte_carlo replaces it with per-slot sampling estimates.
    """
    if mode not in ("closed_form", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    v, a = differentiate_trajectory(plan)
    s = plan.positions
    violations = physical_violations(scenario, s, v, a)
    worst = max(violations, key=violations.get)
    if violations[worst] > feasibility_tol:
        raise InfeasibleScenarioError(
            f"plan violates {worst} by {violations[worst]:.3g}: {violations}"
        )

    u_hat, _ = pointing_geometry(s, v, a, scenario.aircraft.g)
    n = plan.n_slots
    z = np.linalg.norm(s, axis=1)
    if mode == "closed_form":
        lam = hoyt_eigenvalues(scenario.jitter, u_hat)
        capacity = np.array(
            [
                quadrature_ergodic_capacity(scenario.link, z[k], HoytParams(lam1=lam[k, 0], lam2=lam[k, 1]))
                for k in range(n)
            ]
        )
    else:
        # One call per slot: the seeded stream is consumed slot by slot.
        rng = np.random.default_rng(scenario.seed if seed is None else seed)
        capacity = np.array(
            [
                mc_ergodic_capacity(
                    scenario.link, z[k], scenario.jitter, u_hat[k], n=samples_per_slot, seed=rng
                ).value
                for k in range(n)
            ]
        )
    power = flight_power(v[:-1], a, scenario.aircraft)
    power_total = float(np.sum(power)) + n * scenario.link.transmit_power + scenario.launch_cost / plan.delta
    capacity_total = float(np.sum(capacity))
    return EfficiencyReport(
        efficiency=capacity_total / power_total,
        capacity_total=capacity_total,
        power_total=power_total,
        capacity_per_slot=capacity,
        power_per_slot=power,
        mode=mode,
    )


def anchored_feasibility(iterate: Iterate, scenario: Scenario, config=None, tol: float = 1e-8):
    """check_feasible of the iterate against its own assembled restriction."""
    sub = Subproblem(iterate, scenario, config)
    return check_feasible(sub.program, sub.anchor_x(), tol=tol)


def restriction_tightness(iterate: Iterate, scenario: Scenario, config=None) -> dict[str, float]:
    """Max |restriction - original| gap at the anchor for every restricted family.

    At the anchor every linearized/conic restriction must coincide with the
    original nonconvex constraint expression.
    """
    sub = Subproblem(iterate, scenario, config)
    x = sub.anchor_x()
    report = sub.program.violations(x)
    craft = scenario.aircraft
    speeds = np.linalg.norm(iterate.v[:-1, :2], axis=1)
    gaps = {}
    # speed floor: restriction value must equal v_min^2 - |v|^2 at the anchor.
    gaps["speed_floor_lin"] = float(
        np.max(np.abs(report["speed_floor_lin"] - (craft.v_min**2 - speeds**2)))
    )
    # range linearization: S^2 - (2 s_p.s - |s_p|^2) == S^2 - |s|^2 at anchor.
    s_norm_sq = np.einsum("kc,kc->k", iterate.s, iterate.s)
    gaps["range_lin"] = float(np.max(np.abs(report["range_lin"] - (iterate.S**2 - s_norm_sq))))
    gaps["speed_sq_floor"] = float(
        np.max(np.abs(report["speed_sq_floor"] - (iterate.R**2 - speeds**2)))
    )
    # jitter restrictions: both forms reduce to sqrt(u' D u) - S U at anchor.
    d_mat = np.diag(
        [
            scenario.jitter.matrix[1, 1] + scenario.jitter.matrix[2, 2],
            scenario.jitter.matrix[2, 2] + scenario.jitter.matrix[0, 0],
            scenario.jitter.matrix[0, 0] + scenario.jitter.matrix[1, 1],
        ]
    )
    w = np.sqrt(np.einsum("ki,ij,kj->k", iterate.u_hat, d_mat, iterate.u_hat))
    target = w - iterate.S * iterate.U
    gaps["jitter_cone"] = float(np.max(np.abs(report["jitter_cone"] - target)))
    gaps["jitter_lin"] = float(np.max(np.abs(report["jitter_lin"] - target)))
    # drag cone: exact form is active iff Q R = 1 + |a|^2/g^2 at the anchor.
    acc_sq = np.einsum("kc,kc->k", iterate.a, iterate.a)
    qr_gap = iterate.Q * iterate.R - (1.0 + acc_sq / craft.g**2)
    gaps["drag_cone_anchor_gap"] = float(np.max(np.abs(qr_gap)))
    gaps["drag_cone"] = float(np.max(np.abs(report["drag_cone"])))
    # power and log epigraphs hold with equality at tight auxiliaries.
    gaps["power_epi"] = float(np.max(np.abs(report["power_epi"])))
    gaps["logdist"] = float(np.max(np.abs(report["logdist"])))
    return gaps
