import math
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from fsotraj import optimizer as optimizer_mod
from fsotraj.channel import LinkParams
from fsotraj.convex import solve
from fsotraj.convex import solver as solver_mod
from fsotraj.errors import InfeasibleScenarioError, SolverError
from fsotraj.jitter import JitterCovariance, reduce_jitter_dof
from fsotraj.kinematics import AircraftParams, TrajectoryPlan, differentiate_trajectory
from fsotraj.mission import (
    CircularInit,
    OptimizerConfig,
    Scenario,
    initialize_iterate,
    physical_violations,
    worst_violation,
)
from fsotraj.optimizer import (
    anchored_feasibility,
    dinkelbach_solve,
    energy_efficiency,
    optimize,
)
from fsotraj.scenario import load_scenario
from fsotraj.subproblem import Subproblem
from reference_assembly import restriction_tightness

H = 600.0
SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def moving_scenario(n=12, delta=2.0, **kw):
    return Scenario(
        start=np.array([54.0, 200.0, H]),
        end=np.array([450.0, 200.0, H]),
        n_slots=n,
        delta=delta,
        altitude=H,
        launch_cost=1e5,
        **kw,
    )


def hover_scenario(n=40, delta=2.0, **kw):
    return Scenario(
        start=np.array([0.0, 0.0, H]),
        end=np.array([0.0, 0.0, H]),
        n_slots=n,
        delta=delta,
        altitude=H,
        launch_cost=4e5,
        **kw,
    )


class TestInitialization:
    def test_linear_constant_speed(self):
        sc = moving_scenario(n=100, delta=0.2)
        it = initialize_iterate(sc)
        speeds = np.linalg.norm(it.v, axis=1)
        assert np.allclose(speeds, 20.0, atol=1e-9)  # 396 m over 99 slots of 0.2 s
        assert np.allclose(it.a, 0.0, atol=1e-9)
        assert np.allclose(it.s[0], sc.start)
        assert np.allclose(it.s[-1], sc.end)

    def test_circular_closed_loop(self):
        sc = hover_scenario(n=400, delta=0.2)
        it = initialize_iterate(sc)
        assert np.allclose(it.s[0], it.s[-1])
        expected_speed = 2.0 * math.pi * 60.0 / ((400 - 1) * 0.2)
        speeds = np.linalg.norm(it.v[:-1], axis=1)
        # A discrete circle's chord speed is slightly below the arc speed.
        assert np.allclose(speeds, expected_speed, rtol=1e-3)
        radii = np.linalg.norm(it.s[:, :2] - np.array([0.0, -60.0]), axis=1)
        assert np.allclose(radii, 60.0, atol=1e-9)

    def test_the_endpoints_pick_the_start(self):
        # A mission that ends where it begins starts on its circle; any other
        # starts on the straight line, whatever its circle.
        loop = hover_scenario(n=400, delta=0.2, initialization=CircularInit(center_xy=(0.0, 80.0)))
        assert loop.loop
        radii = np.linalg.norm(initialize_iterate(loop).s[:, :2] - np.array([0.0, 80.0]), axis=1)
        assert np.allclose(radii, 80.0, atol=1e-9)
        transit = replace(loop, end=np.array([300.0, 0.0, H]))
        assert not transit.loop
        s = initialize_iterate(transit).s
        assert np.array_equal(s[:, 1], np.zeros(400))
        assert np.allclose(s[:, 0], np.linspace(0.0, 300.0, 400))

    @pytest.mark.parametrize("value", ["circular", "linear", None])
    def test_initialization_holds_only_a_circle(self, value):
        with pytest.raises(TypeError, match="initialization must be a CircularInit, got"):
            moving_scenario(initialization=value)

    def test_infeasible_endpoints_reported(self):
        sc = moving_scenario(n=4, delta=0.2)  # 396 m in 0.6 s of motion
        with pytest.raises(InfeasibleScenarioError, match="unreachable"):
            initialize_iterate(sc)

    def test_speed_violation_named(self):
        # 396 m over 198 s -> 2 m/s < v_min.
        sc = moving_scenario(n=100, delta=2.0)
        with pytest.raises(InfeasibleScenarioError, match="speed_min"):
            initialize_iterate(sc)


class TestTradeoffSearch:
    def test_f_nondecreasing_in_lambda(self):
        sc = moving_scenario()
        sub = Subproblem(initialize_iterate(sc), sc)
        values = []
        for lam in np.linspace(0.0, 2e-3, 10):
            sub.set_tradeoff(lam)
            sol = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
            assert sol.status == "optimal"
            values.append(sol.objective)
        diffs = np.diff(values)
        assert np.all(diffs >= -1e-9)

    def test_root_identity(self):
        sc = moving_scenario()
        sub = Subproblem(initialize_iterate(sc), sc)
        result = dinkelbach_solve(sub)
        c_anchor, p_anchor = sub.surrogate_totals(sub.space.unpack(sub.anchor_x()))
        assert result.lam_star == c_anchor / p_anchor
        assert_certified_step(result)


def assert_certified_step(result, rel=0.1):
    """F <= 0 up to the solve's reported gap, and the solution's C / P within
    ``rel`` of the trade-off weight (measured 0.021-0.031 from the initial
    iterates of the test scenarios)."""
    assert result.f_value == pytest.approx(-result.c_tot + result.lam_star * result.p_tot, rel=1e-9)
    assert 0.0 <= result.gap and result.f_value <= result.gap
    assert abs(result.c_tot / result.p_tot - result.lam_star) <= rel * result.lam_star


def _counting_solve(monkeypatch):
    """Record the Newton iterations of every solve dinkelbach_solve makes."""
    iterations = []
    inner = optimizer_mod.solve

    def counted(*args, **kwargs):
        sol = inner(*args, **kwargs)
        iterations.append(sol.iterations)
        return sol

    monkeypatch.setattr(optimizer_mod, "solve", counted)
    return iterations


class TestDinkelbach:
    @pytest.mark.parametrize("name", ["moving", "hover_pitch_jitter"])
    def test_one_solve_from_bundled_initial_iterate(self, name, monkeypatch):
        settings = load_scenario(str(SCENARIOS / f"{name}.ini"))
        sc, cfg = settings.scenario, settings.optimizer
        sub = Subproblem(initialize_iterate(sc), sc)
        iterations = _counting_solve(monkeypatch)
        result = dinkelbach_solve(sub, cfg.solver_tol)
        assert len(iterations) == 1
        assert result.newton_iters == iterations[0]
        assert_certified_step(result)

    def test_f_above_the_gap_raises(self, monkeypatch):
        # The feasible anchor certifies F <= 0; a solve whose F exceeds its own
        # gap, here twice the gap with the gap kept, is wrong and must not pass.
        inner = optimizer_mod.solve

        def shifted(*args, **kwargs):
            sol = inner(*args, **kwargs)
            gap = sol.objective - sol.dual_bound
            return replace(sol, objective=2.0 * gap, dual_bound=gap)

        monkeypatch.setattr(optimizer_mod, "solve", shifted)
        sc = moving_scenario()
        with pytest.raises(SolverError, match="exceeds the solve's gap") as err:
            dinkelbach_solve(Subproblem(initialize_iterate(sc), sc))
        assert "trade-off" in str(err.value) and "stationarity" in str(err.value)

    def test_nonoptimal_solve_raises(self, monkeypatch):
        sc = moving_scenario()
        monkeypatch.setattr(solver_mod, "_MAX_ITER", 2)
        with pytest.raises(SolverError, match="max_iter") as err:
            dinkelbach_solve(Subproblem(initialize_iterate(sc), sc))
        assert "trade-off" in str(err.value) and "stationarity" in str(err.value)

    def test_nonoptimal_warm_solve_raises_without_retry(self, monkeypatch):
        sc = moving_scenario()
        sub = Subproblem(initialize_iterate(sc), sc)
        multipliers = dinkelbach_solve(sub).multipliers
        iterations = _counting_solve(monkeypatch)
        monkeypatch.setattr(solver_mod, "_MAX_ITER", 2)
        with pytest.raises(SolverError, match="max_iter"):
            dinkelbach_solve(sub, multipliers=multipliers)
        assert len(iterations) == 1

    def test_solve_from_a_feasible_anchor_is_never_infeasible(self):
        # moving at 5 mrad pitch jitter, 1-DoF model: the cold first solve
        # stalls at step 39 with a slack residual far above tolerance, but it
        # started from the anchor, which meets every constraint, so the
        # program is feasible and the status says the solve stalled.
        run = load_scenario(SCENARIOS / "moving.ini", {("jitter", "sigma_pitch"): "5 mrad"})
        sc = run.scenario.with_jitter(reduce_jitter_dof(run.scenario.jitter, 1))
        assert anchored_feasibility(initialize_iterate(sc), sc).feasible
        with pytest.raises(SolverError, match=r"solve failed \(stalled\)"):
            optimize(sc, run.optimizer)


class TestWarmStartChain:
    def test_each_solve_starts_from_the_previous_multipliers(self, monkeypatch):
        # One solve per outer iteration: the first starts cold, and each later
        # one from the multipliers of the solve before.
        calls = []
        inner = optimizer_mod.solve

        def spy(*args, lam0=None, **kwargs):
            sol = inner(*args, lam0=lam0, **kwargs)
            calls.append((lam0, sol))
            return sol

        monkeypatch.setattr(optimizer_mod, "solve", spy)
        res = optimize(moving_scenario(), OptimizerConfig(max_outer=3))
        assert len(calls) == len(res.history) == 3
        assert calls[0][0] is None
        for (_, previous), (lam0, _) in zip(calls, calls[1:]):
            assert lam0 is previous.lam


@pytest.fixture(scope="module")
def bundled_moving_solves():
    """The bundled moving scenario, its optimizer settings, one optimize run,
    and the (tol, status) of every solve that run made."""
    settings = load_scenario(str(SCENARIOS / "moving.ini"))
    calls = []
    inner = optimizer_mod.solve

    def spy(*args, tol, **kwargs):
        sol = inner(*args, tol=tol, **kwargs)
        calls.append((tol, sol.status))
        return sol

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(optimizer_mod, "solve", spy)
        res = optimize(settings.scenario, settings.optimizer)
    return settings.scenario, settings.optimizer, res, calls


@pytest.fixture(scope="module")
def bundled_moving(bundled_moving_solves):
    """The bundled moving scenario, its optimizer settings and one optimize run."""
    return bundled_moving_solves[:3]


class TestOptimize:
    def test_moving_mission_improves_and_stays_feasible(self):
        sc = moving_scenario()
        res = optimize(sc, OptimizerConfig(max_outer=12))
        assert len(res.history) >= 1
        assert max(r.max_violation for r in res.history) <= 1e-6
        assert all(r.newton_iters >= 1 for r in res.history)
        effs = [r.efficiency for r in res.history]
        assert effs[-1] >= effs[0] - 1e-12
        init = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        before = energy_efficiency(init, sc).efficiency
        after = energy_efficiency(res.plan, sc).efficiency
        assert after >= before

    def test_hover_mission_closed_loop_preserved(self):
        sc = hover_scenario()
        res = optimize(sc, OptimizerConfig(max_outer=8))
        assert np.allclose(res.plan.positions[0], sc.start, atol=1e-6)
        assert np.allclose(res.plan.positions[-1], sc.end, atol=1e-6)
        assert max(r.max_violation for r in res.history) <= 1e-6
        assert anchored_feasibility(res.iterate, sc).max_violation <= 1e-8

    def test_violating_iterate_warns_naming_family_amount_and_slot(self, monkeypatch):
        monkeypatch.setattr(optimizer_mod, "worst_violation", lambda *args: ("speed_max", 7, 0.25))
        with pytest.warns(RuntimeWarning, match=r"^iterate 1 violates speed_max by 0\.25 at slot 7$"):
            res = optimize(moving_scenario(), OptimizerConfig(max_outer=1))
        assert [r.max_violation for r in res.history] == [0.25]

    def test_stop_reason(self, bundled_moving):
        sc, cfg, res = bundled_moving
        assert res.stop_reason == "plateau" and res.converged
        res = optimize(sc, replace(cfg, max_outer=2))
        assert res.stop_reason == "max_outer" and not res.converged
        assert len(res.history) == 2

    def test_bundled_moving_regression_pin(self, bundled_moving):
        # The work counts and the final plan's true efficiency of the bundled
        # moving scenario; a solver change that moves them must say why.
        sc, _, res = bundled_moving
        assert len(res.history) == 36
        assert sum(r.solves for r in res.history) == 36
        assert sum(r.newton_iters for r in res.history) == 496
        assert res.stop_reason == "plateau"
        assert energy_efficiency(res.plan, sc).efficiency == pytest.approx(3.717682720547616e-4, rel=1e-12, abs=0.0)

    def test_bundled_hover_pitch_jitter_regression_pin(self):
        # The N=400 pitch-jitter hover stops on max_outer, and a change that
        # leaves the moving pin within 1e-9 can still move it to another basin.
        settings = load_scenario(str(SCENARIOS / "hover_pitch_jitter.ini"))
        sc = settings.scenario
        res = optimize(sc, settings.optimizer)
        assert len(res.history) == 50
        assert sum(r.solves for r in res.history) == 50
        assert sum(r.newton_iters for r in res.history) == 358
        assert res.stop_reason == "max_outer"
        assert energy_efficiency(res.plan, sc).efficiency == pytest.approx(3.8518993294308425e-4, rel=1e-12, abs=0.0)

    def test_each_step_certifies_the_next_weight(self, bundled_moving):
        # lam_p <= C_p / P_p: the feasible anchor gives F <= 0 at its own
        # efficiency. C_p / P_p <= lam_{p+1}: re-tightening the auxiliaries at
        # the next anchor can only raise C and lower P. Minimum margin measured
        # 4.5e-9 relative.
        _, _, res = bundled_moving
        ratios = [r.c_tot / r.p_tot for r in res.history]
        lams = [r.lam_star for r in res.history]
        assert all(lam <= ratio for lam, ratio in zip(lams, ratios))
        assert all(ratio <= lam for ratio, lam in zip(ratios, lams[1:]))

    def test_correlated_jitter_plan(self):
        # The bundled transit under roll-pitch correlated jitter: the planner
        # takes any covariance, and its restriction stays tight and feasible.
        settings = load_scenario(str(SCENARIOS / "moving.ini"))
        sc = settings.scenario.with_jitter(JitterCovariance.from_mrad((0.583, 0.583, 0.583), (0.6, 0.0, 0.0)))
        res = optimize(sc, settings.optimizer)
        assert res.stop_reason == "plateau"
        assert max(r.max_violation for r in res.history) <= 1e-6
        assert energy_efficiency(res.plan, sc).efficiency > energy_efficiency(
            initialize_iterate(sc).plan(sc.delta, sc.altitude), sc
        ).efficiency
        assert anchored_feasibility(res.iterate, sc).feasible
        gaps = restriction_tightness(res.iterate, sc)
        assert gaps["jitter_cone"] <= 1e-12 and gaps["jitter_lin"] <= 1e-12

    def test_jitter_direction_changes_trajectory(self):
        pitch = hover_scenario(jitter=JitterCovariance.from_mrad((0.1, 1.0, 0.1)))
        sym = hover_scenario(jitter=JitterCovariance.from_mrad((0.583, 0.583, 0.583)))
        cfg = OptimizerConfig(max_outer=15)
        plan_pitch = optimize(pitch, cfg).plan
        plan_sym = optimize(sym, cfg).plan
        assert np.max(np.abs(plan_pitch.positions - plan_sym.positions)) > 10.0


class TestForcingSchedule:
    """The solve tolerance of each restriction on the bundled moving run."""

    def test_first_two_solves_at_solver_tol(self, bundled_moving):
        _, cfg, res = bundled_moving
        assert [r.solver_tol for r in res.history[:2]] == [cfg.solver_tol] * 2

    def test_tolerance_follows_the_last_recorded_gain(self, bundled_moving):
        # From the third restriction on: max(solver_tol, min(1e-5, f g)), with
        # f = solver_tol / TOL_EFFICIENCY_REL and g the relative change of the
        # two efficiencies recorded before it.
        _, cfg, res = bundled_moving
        tols = [r.solver_tol for r in res.history]
        assert all(cfg.solver_tol <= tol <= 1e-5 for tol in tols)
        effs = [r.efficiency for r in res.history]
        factor = cfg.solver_tol / optimizer_mod.TOL_EFFICIENCY_REL
        for p in range(2, len(effs)):
            gain = abs(effs[p - 1] - effs[p - 2]) / abs(effs[p - 1])
            assert tols[p] == max(cfg.solver_tol, min(1e-5, factor * gain)), p
        assert max(tols) > cfg.solver_tol  # the run does loosen some solves

    def test_plateau_stop_rests_on_full_tolerance_solves(self, bundled_moving):
        # Gains inside the plateau window are below 1e-7, so their forcing
        # terms are below solver_tol. The rule guarantees this for the last
        # PLATEAU_WINDOW - 1 solves; on this run the last 9 of 36 ran at it.
        _, cfg, res = bundled_moving
        assert res.stop_reason == "plateau"
        window = res.history[-optimizer_mod.PLATEAU_WINDOW :]
        assert [r.solver_tol for r in window] == [cfg.solver_tol] * len(window)

    def test_every_solve_runs_at_its_recorded_tolerance(self, bundled_moving_solves):
        _, _, res, calls = bundled_moving_solves
        assert [tol for tol, _ in calls] == [r.solver_tol for r in res.history]
        assert all(status == "optimal" for _, status in calls)


def efficiency_history(*efficiencies):
    """Iteration records that carry only the given efficiencies."""
    return [
        optimizer_mod.IterationRecord(
            iteration=p, lam_star=0.0, c_tot=e, p_tot=1.0, efficiency=e,
            step_norm=0.0, max_violation=0.0, newton_iters=0, solver_tol=1e-8,
        )
        for p, e in enumerate(efficiencies, start=1)
    ]


class TestSolveTolerance:
    """`solve_tolerance` on synthetic histories, without an `optimize` run."""

    def test_first_two_records_run_at_solver_tol(self):
        # No gain is measured before two records, however far apart they are.
        for tol in (1e-8, 1e-6):
            assert optimizer_mod.solve_tolerance([], tol) == tol
            assert optimizer_mod.solve_tolerance(efficiency_history(1.0), tol) == tol

    def test_large_gains_are_capped(self):
        for effs in ((1.0, 2.0), (2.0, 1.0), (3.0, 1.0, 1.5), (1.0, 1.0 + 1e-3)):
            assert optimizer_mod.solve_tolerance(efficiency_history(*effs), 1e-8) == 1e-5

    def test_forcing_term_between_floor_and_cap(self):
        # gain 1e-5: 0.1 * 1e-5 at the default solver_tol and plateau threshold.
        tol = optimizer_mod.solve_tolerance(efficiency_history(1.0 - 1e-5, 1.0), 1e-8)
        assert tol == pytest.approx(1e-6, rel=1e-10)
        assert 1e-8 < tol < 1e-5

    def test_small_gains_are_floored_at_solver_tol(self):
        assert optimizer_mod.solve_tolerance(efficiency_history(1.0, 1.0), 1e-8) == 1e-8
        assert optimizer_mod.solve_tolerance(efficiency_history(2.0, 1.0, 1.0 + 1e-12), 1e-8) == 1e-8

    @pytest.mark.parametrize("solver_tol", [1e-10, 1e-8, 3e-8, 1e-6])
    def test_every_gain_below_the_plateau_threshold_forces_solver_tol(self, solver_tol):
        # The factor solver_tol / TOL_EFFICIENCY_REL is the loosest for which a
        # plateau's gains (each below the threshold) still run at solver_tol,
        # down to the last ulp below the threshold.
        threshold = optimizer_mod.TOL_EFFICIENCY_REL
        below = np.concatenate([[0.0], np.logspace(-16, -7, 200)[:-1], np.nextafter(threshold, 0.0) - np.arange(8) * 1e-23])
        edge = 0
        for last in (1.0, 3.7e-4):
            for gain in below:
                for prev in (last * (1.0 - gain), last * (1.0 + gain)):
                    g = abs(last - prev) / abs(last)
                    if g >= threshold:
                        continue
                    edge += g > 0.999 * threshold
                    assert optimizer_mod.solve_tolerance(efficiency_history(prev, last), solver_tol) == solver_tol
        assert edge > 0
        above = efficiency_history(1.0 - 2.0 * threshold, 1.0)
        assert optimizer_mod.solve_tolerance(above, solver_tol) > solver_tol


class TestEnergyEfficiency:
    def test_zero_transmit_power_limit(self):
        sc = moving_scenario(link=LinkParams(transmit_power=1e-12))
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        report = energy_efficiency(plan, sc)
        assert report.efficiency < 1e-8

    def test_closed_form_vs_monte_carlo(self):
        sc = moving_scenario()
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        closed = energy_efficiency(plan, sc, mode="closed_form")
        mc = energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=60_000, seed=4)
        assert mc.efficiency == pytest.approx(closed.efficiency, rel=0.01)

    def test_launch_cost_dominates_denominator(self):
        sc = hover_scenario()
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        report = energy_efficiency(plan, sc)
        assert sc.launch_cost / sc.delta > 0.8 * report.power_total

    def test_infeasible_plan_rejected_with_report(self):
        sc = moving_scenario()
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        bad = plan.positions.copy()
        bad[5, 1] += 900.0  # breaks elevation (the worst, at slot 5) and acceleration
        with pytest.raises(InfeasibleScenarioError, match="violates elevation by .* at slot 5"):
            energy_efficiency(TrajectoryPlan(bad, plan.delta, plan.altitude), sc)

    def test_worst_violation_names_family_and_slot(self):
        sc = moving_scenario(aircraft=AircraftParams(a_max=1000.0))
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        fast = plan.positions.copy()
        fast[7, 0] += 200.0  # slot 6 covers 236 m in 2 s, over v_max = 100 m/s
        v, a = differentiate_trajectory(TrajectoryPlan(fast, plan.delta, plan.altitude))
        family, slot, amount = worst_violation(sc, fast, v, a)
        assert (family, slot) == ("speed_max", 6)
        assert amount == pytest.approx(np.linalg.norm(v[6]) - sc.aircraft.v_max, rel=1e-15)
        assert amount == max(physical_violations(sc, fast, v, a).values())

    def test_initial_trajectory_error_names_the_slot(self):
        sc = replace(moving_scenario(), start=np.array([650.0, 0.0, H]))  # 650 m out at 600 m altitude
        with pytest.raises(InfeasibleScenarioError, match="violates elevation by 50 at slot 0"):
            initialize_iterate(sc)

    def test_unknown_mode(self):
        sc = moving_scenario()
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        with pytest.raises(ValueError):
            energy_efficiency(plan, sc, mode="bogus")
