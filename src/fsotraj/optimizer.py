"""Outer trajectory optimization: Dinkelbach's iteration inside, successive
convex restriction outside, plus the honest (non-surrogate) energy-efficiency
evaluation used to judge results.
"""
from __future__ import annotations

import time
import warnings
from dataclasses import dataclass

import numpy as np

# mc_ergodic_capacity and quadrature_ergodic_capacity stay bound here because
# bench/tracer.py installs its channel.mc_capacity and channel.quadrature spans
# on these names; the evaluation uses mc_capacities and quadrature_capacities.
from .channel import (  # noqa: F401
    mc_capacities,
    mc_ergodic_capacity,
    quadrature_capacities,
    quadrature_ergodic_capacity,
)
from .convex import check_feasible, solve
from .convex.solver import require_optimal
from .errors import BracketError, InfeasibleScenarioError, slot_suffix
# hoyt_params stays bound here because bench/tracer.py installs its
# jitter.hoyt_params span on this name; the evaluation uses hoyt_eigenvalues.
from .jitter import hoyt_eigenvalues, hoyt_params, pointing_weight_matrix  # noqa: F401
from .kinematics import TrajectoryPlan, differentiate_trajectory, flight_power
from .mission import (
    Iterate,
    OptimizerConfig,
    Scenario,
    initialize_iterate,
    physical_violations,
    pointing_geometry,
    worst_violation,
)
from .subproblem import Subproblem

# Physical-constraint violation above which a plan is infeasible; an outer
# iterate warns above 100 times this.
FEASIBILITY_TOL = 1e-6
# Secondary stop: the step norm can oscillate near the restriction's fixed
# point while the objective is flat, so a sustained efficiency plateau (a
# relative spread below TOL_EFFICIENCY_REL over PLATEAU_WINDOW + 1 iterations)
# also counts as convergence.
TOL_EFFICIENCY_REL = 1e-7
PLATEAU_WINDOW = 5


@dataclass
class DinkelbachResult:
    iterate: Iterate
    lam_star: float
    f_value: float
    c_tot: float
    p_tot: float
    solves: int
    newton_iters: int  # summed over the search's solves
    multipliers: np.ndarray  # physical inequality multipliers of the accepted solve


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


@dataclass
class OptimizeResult:
    plan: TrajectoryPlan
    iterate: Iterate
    history: list[IterationRecord]
    stop_reason: str  # plateau | max_outer
    wall_time: float = 0.0

    @property
    def converged(self) -> bool:
        """A stopping rule fired before ``max_outer`` ran out."""
        return self.stop_reason != "max_outer"


@dataclass
class EfficiencyReport:
    """True-model mission efficiency: total capacity over total power proxy."""

    efficiency: float
    capacity_total: float
    power_total: float
    capacity_per_slot: np.ndarray
    power_per_slot: np.ndarray
    mode: str


def dinkelbach_iterate(evaluate, lam0, tol_f, max_iter):
    """Dinkelbach's iteration for the root of F(lam) = min(-C + lam P).

    ``evaluate(lam)`` solves at lam and returns (F, C/P at the solution,
    payload). Each pass moves lam to that ratio (Dinkelbach 1967), which never
    decreases lam and converges superlinearly (Schaible 1976). Returns
    (lam, F, payload) of the first solve with |F| <= tol_f.
    Raises BracketError when a solve gives F > tol_f (a feasible previous
    point certifies F <= 0, so the solve is wrong), or when ``max_iter``
    solves end with |F| > tol_f.
    """
    lam, f_val = lam0, None
    for k in range(max_iter):
        if k:
            lam = ratio
        f_val, ratio, payload = evaluate(lam)
        if abs(f_val) <= tol_f:
            return lam, f_val, payload
        if f_val > tol_f:
            raise BracketError(
                f"F = {f_val:.6g} > tol_f = {tol_f:.3g} at lam = {lam:.6g}; "
                "the feasible previous point certifies F <= 0",
                lam=lam,
                f=f_val,
                tol_f=tol_f,
            )
    raise BracketError(
        f"Dinkelbach's iteration ended after {max_iter} solves at lam = {lam:.6g} with F = {f_val}, "
        f"not within tol_f = {tol_f:.3g}",
        lam=lam,
        f=f_val,
        tol_f=tol_f,
    )


def dinkelbach_solve(
    iterate: Iterate,
    scenario: Scenario,
    config: OptimizerConfig | None = None,
    subproblem: Subproblem | None = None,
    multipliers: np.ndarray | None = None,
) -> DinkelbachResult:
    """Trade-off weight lam with |F(lam)| <= tol, F(lam) = min(-C + lam P).

    The root is the efficiency of the restricted problem. Dinkelbach's
    iteration starts at the anchor's surrogate efficiency C_anchor / P_anchor,
    warm-started from the anchor, and moves lam to C / P at each solution,
    warm-starting the next solve from it, at most ``max_inner`` solves. The
    anchor is feasible for its own restriction, so F(C_anchor / P_anchor) <= 0,
    and near a fixed point of the restriction loop the first solve already
    meets the tolerance.

    ``multipliers`` (physical inequality multipliers, such as the previous
    search's ``DinkelbachResult.multipliers``) warm-start the duals of the
    first solve; each later solve starts from the multipliers of the one
    before. Without them the first solve starts cold.

    Every solve must end ``optimal``; any other status raises SolverError
    naming the status, the trade-off weight and the KKT residuals.
    """
    config = config or OptimizerConfig()
    sub = subproblem or Subproblem(iterate, scenario)
    anchor_x = sub.anchor_x()

    c_anchor, p_anchor = sub.surrogate_totals(sub.space.unpack(anchor_x))
    if c_anchor <= 0.0:
        raise InfeasibleScenarioError(
            f"anchor capacity {c_anchor:.3g} is not positive; the fractional objective is ill-posed"
        )
    tol_f = config.tol_dinkelbach_rel * p_anchor

    warm, warm_lam = anchor_x, multipliers
    newton = []

    def f_at(lam):
        nonlocal warm, warm_lam
        sub.set_tradeoff(lam)
        sol = solve(
            sub.program, tol=config.solver_tol, max_iter=config.solver_max_iter, x0=warm, lam0=warm_lam
        )
        newton.append(sol.iterations)
        require_optimal(sol, f"at trade-off {lam:.6g}")
        warm, warm_lam = sol.x, sol.lam
        c_tot, p_tot = sub.surrogate_totals(sol.values)
        return sol.objective, c_tot / p_tot, (sol, c_tot, p_tot)

    lam_star, f_val, (sol, c_tot, p_tot) = dinkelbach_iterate(
        f_at, c_anchor / p_anchor, tol_f, config.max_inner
    )
    return DinkelbachResult(
        iterate=sub.solution_iterate(sol.values),
        lam_star=lam_star,
        f_value=f_val,
        c_tot=c_tot,
        p_tot=p_tot,
        solves=len(newton),
        newton_iters=sum(newton),
        multipliers=sol.lam,
    )


def optimize(
    scenario: Scenario, config: OptimizerConfig | None = None, callback=None
) -> OptimizeResult:
    """Run the full restriction loop from the scenario's initial trajectory.

    Every restriction of one scenario has the same constraint rows, so each
    trade-off search warm-starts its duals from the multipliers that the
    previous search ended with; the first search starts cold.
    """
    config = config or OptimizerConfig()
    t0 = time.perf_counter()
    current = initialize_iterate(scenario)
    history: list[IterationRecord] = []
    stop_reason = "max_outer"
    multipliers = None

    for p in range(1, config.max_outer + 1):
        sub = Subproblem(current, scenario)
        result = dinkelbach_solve(current, scenario, config, subproblem=sub, multipliers=multipliers)
        multipliers = result.multipliers
        nxt = result.iterate

        step = float(
            np.linalg.norm(nxt.flat_original() - current.flat_original())
        ) + float(np.linalg.norm(nxt.flat_auxiliary() - current.flat_auxiliary()))
        family, slot, worst = worst_violation(scenario, nxt.s, nxt.v, nxt.a)
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
        )
        history.append(record)
        if callback is not None:
            callback(record)
        if worst > 100.0 * FEASIBILITY_TOL:
            warnings.warn(
                f"iterate {p} violates {family} by {worst:.3g}{slot_suffix(slot)}",
                RuntimeWarning,
                stacklevel=2,
            )
        current = nxt
        if len(history) >= PLATEAU_WINDOW + 1:
            recent = [r.efficiency for r in history[-(PLATEAU_WINDOW + 1) :]]
            spread = (max(recent) - min(recent)) / max(abs(recent[-1]), 1e-300)
            if spread < TOL_EFFICIENCY_REL:
                stop_reason = "plateau"
                break

    plan = current.plan(scenario.delta, scenario.altitude)
    return OptimizeResult(
        plan=plan,
        iterate=current,
        history=history,
        stop_reason=stop_reason,
        wall_time=time.perf_counter() - t0,
    )


def energy_efficiency(
    plan: TrajectoryPlan,
    scenario: Scenario,
    mode: str = "closed_form",
    samples_per_slot: int = 2_000,
    seed: int | np.random.Generator | None = None,
) -> EfficiencyReport:
    """Mission efficiency under the true channel model (no surrogate).

    closed_form evaluates the ergodic capacity of every slot by deterministic
    quadrature, in one `quadrature_capacities` call;
    monte_carlo replaces it with `mc_capacities`: samples_per_slot draws per
    slot, slot k from the k-th child stream spawned from ``seed`` (an int or a
    Generator; default ``scenario.seed``), bit-identical to
    `mc_ergodic_capacity` on that child stream. Each slot is reduced with a
    cross-fitted log-SNR control variate, so the default 2,000 samples give
    every slot of the bundled plans a smaller standard error than the plain
    mean of 20,000 samples.
    """
    if mode not in ("closed_form", "monte_carlo"):
        raise ValueError(f"unknown mode {mode!r}")
    v, a = differentiate_trajectory(plan)
    s = plan.positions
    family, slot, amount = worst_violation(scenario, s, v, a)
    if amount > FEASIBILITY_TOL:
        raise InfeasibleScenarioError(
            f"plan violates {family} by {amount:.3g}{slot_suffix(slot)}: {physical_violations(scenario, s, v, a)}"
        )

    u_hat, _ = pointing_geometry(s, v, a, scenario.aircraft.g)
    n = plan.n_slots
    z = np.linalg.norm(s, axis=1)
    if mode == "closed_form":
        capacity = quadrature_capacities(scenario.link, z, hoyt_eigenvalues(scenario.jitter, u_hat))
    else:
        rng = np.random.default_rng(scenario.seed if seed is None else seed)
        capacity = mc_capacities(scenario.link, z, scenario.jitter, u_hat, samples_per_slot, rng)
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
    """check_feasible of the iterate against its own assembled restriction.

    ``config`` is accepted for callers that pass the run's OptimizerConfig;
    the restriction depends only on the iterate and the scenario.
    """
    sub = Subproblem(iterate, scenario)
    return check_feasible(sub.program, sub.anchor_x(), tol=tol)


def restriction_tightness(iterate: Iterate, scenario: Scenario) -> dict[str, float]:
    """Max |restriction - original| gap at the anchor for every restricted family.

    At the anchor every linearized/conic restriction must coincide with the
    original nonconvex constraint expression.
    """
    sub = Subproblem(iterate, scenario)
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
    d_mat = pointing_weight_matrix(scenario.jitter)
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
