"""Outer trajectory optimization: successive convex restriction with one
Dinkelbach step per restriction, plus the honest (non-surrogate) energy-efficiency
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
from .errors import InfeasibleScenarioError, SolverError, slot_suffix
# hoyt_params stays bound here because bench/tracer.py installs its
# jitter.hoyt_params span on this name; the evaluation uses hoyt_eigenvalues.
from .jitter import hoyt_eigenvalues, hoyt_params, pointing_weight_matrix, weighted_pointing_norm  # noqa: F401
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
# Cap of each solve's forcing tolerance (`solve_tolerance`), as in inexact
# Newton methods (Dembo, Eisenstat & Steihaug 1982).
FORCING_TOL_CAP = 1e-5


@dataclass
class DinkelbachResult:
    iterate: Iterate
    lam_star: float
    f_value: float  # F(lam_star) = min(-C + lam_star P), at most ``gap``
    gap: float  # the solve's objective minus its dual bound
    c_tot: float
    p_tot: float
    newton_iters: int
    multipliers: np.ndarray  # physical inequality multipliers of the solve


@dataclass
class IterationRecord:
    iteration: int
    lam_star: float
    c_tot: float
    p_tot: float
    efficiency: float
    step_norm: float
    max_violation: float
    newton_iters: int
    solver_tol: float  # the tolerance this iteration's solve ran at

    @property
    def solves(self) -> int:
        """One solve per outer iteration."""
        return 1


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


def dinkelbach_solve(
    sub: Subproblem, tol: float = OptimizerConfig.solver_tol, multipliers: np.ndarray | None = None
) -> DinkelbachResult:
    """One Dinkelbach step on the restriction ``sub``: minimize F = -C + lam P
    at its anchor's surrogate efficiency lam = C_anchor / P_anchor.

    The anchor is feasible for its own restriction, so F(lam) <= 0 and the
    solution's C / P is at least lam (Dinkelbach 1967). Re-tightening the
    auxiliaries at the next anchor can only raise C and lower P, so the next
    restriction's lam is at least this C / P: the outer loop's efficiencies
    never fall, and its fixed point is a stationary point of the fractional
    restriction. Further steps within one restriction are not taken.

    The solve is warm-started from the anchor, and its duals from
    ``multipliers`` (physical inequality multipliers, such as the previous
    restriction's ``DinkelbachResult.multipliers``); without them the duals
    start cold. The solve runs at ``tol`` within the solver's Newton step
    budget. It must end ``optimal`` at that tolerance with F at most its
    reported gap (objective minus dual bound); otherwise SolverError names the
    status or F, the trade-off weight and the KKT residuals.
    """
    lam = sub.set_anchor_tradeoff()
    sol = solve(sub.program, tol=tol, x0=sub.anchor_x(), lam0=multipliers)
    context = f"at trade-off {lam:.6g}"
    require_optimal(sol, context)
    gap = sol.objective - sol.dual_bound
    if sol.objective > gap:
        raise SolverError(
            f"F = {sol.objective:.6g} exceeds the solve's gap {gap:.3g} {context}, "
            f"though the feasible anchor certifies F <= 0: kkt={sol.kkt}"
        )
    c_tot, p_tot = sub.surrogate_totals(sol.values)
    return DinkelbachResult(
        iterate=sub.solution_iterate(sol.values),
        lam_star=lam,
        f_value=sol.objective,
        gap=gap,
        c_tot=c_tot,
        p_tot=p_tot,
        newton_iters=sol.iterations,
        multipliers=sol.lam,
    )


def solve_tolerance(history: list[IterationRecord], solver_tol: float) -> float:
    """The tolerance of the next restriction's solve, given the records so far.

    ``solver_tol`` until two records exist: no outer gain has been measured,
    and the cold first solve sets the basin. Then
    max(solver_tol, min(FORCING_TOL_CAP, f * g)), where g is the relative
    change of the last two recorded efficiencies and
    f = solver_tol / TOL_EFFICIENCY_REL (0.1 at the defaults): the loosest
    factor for which every gain below the plateau threshold still forces
    ``solver_tol``.
    """
    if len(history) < 2:
        return solver_tol
    last, prev = history[-1].efficiency, history[-2].efficiency
    gain = abs(last - prev) / abs(last)
    factor = solver_tol / TOL_EFFICIENCY_REL
    return max(solver_tol, min(FORCING_TOL_CAP, factor * gain))


def optimize(scenario: Scenario, config: OptimizerConfig | None = None) -> OptimizeResult:
    """Run the full restriction loop from the scenario's initial trajectory.

    Every restriction of one scenario has the same constraint rows, so each
    solve warm-starts its duals from the multipliers that the previous solve
    ended with; the first solve starts cold.

    Each restriction is solved only as exactly as the outer progress needs
    (`solve_tolerance`): the first two at ``config.solver_tol``, later ones
    at a tolerance forced by the last recorded efficiency change. Inside a
    plateau that change is below TOL_EFFICIENCY_REL, so the solves that meet
    the plateau rule run at the full ``solver_tol``.
    """
    config = config or OptimizerConfig()
    t0 = time.perf_counter()
    current = initialize_iterate(scenario)
    history: list[IterationRecord] = []
    stop_reason = "max_outer"
    multipliers = None

    for p in range(1, config.max_outer + 1):
        tol = solve_tolerance(history, config.solver_tol)
        result = dinkelbach_solve(Subproblem(current, scenario), tol, multipliers)
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
            newton_iters=result.newton_iters,
            solver_tol=tol,
        )
        history.append(record)
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

    Both modes take the slots' Hoyt law from one `hoyt_eigenvalues` call.
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
    lam = hoyt_eigenvalues(scenario.jitter, u_hat)
    if mode == "closed_form":
        capacity = quadrature_capacities(scenario.link, z, lam)
    else:
        rng = np.random.default_rng(scenario.seed if seed is None else seed)
        capacity = mc_capacities(scenario.link, z, lam, samples_per_slot, rng)
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


def anchored_feasibility(iterate: Iterate, scenario: Scenario, config=None):
    """check_feasible of the iterate against its own assembled restriction.

    ``config`` is accepted for callers that pass the run's OptimizerConfig;
    the restriction depends only on the iterate and the scenario.
    """
    sub = Subproblem(iterate, scenario)
    return check_feasible(sub.program, sub.anchor_x())


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
    w = weighted_pointing_norm(iterate.u_hat, pointing_weight_matrix(scenario.jitter))[0]
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
