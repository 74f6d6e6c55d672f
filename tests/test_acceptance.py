"""Acceptance suite: every release criterion at its pinned tolerance.

Each test prints one `[PASS] ...` line (visible with `pytest -s`); a failed
assertion marks the criterion red. The heavy mission runs keep to the
library's default iteration caps and must stay within their wall-clock
budgets on a desktop-class machine.
"""
import math
import time

import numpy as np
import pytest

from conftest import analysis_geometry
from fsotraj.channel import expected_log_gamma, mc_log_gamma
from fsotraj.convex import solve
from fsotraj.jitter import (
    JitterCovariance,
    hoyt_cdf,
    hoyt_params,
    reduce_jitter_dof,
    sample_error_angles,
)
from fsotraj.kinematics import posture_from_motion, pointing_vector
from fsotraj.linearize import delta_u_coefficients
from fsotraj.mission import (
    CircularInit,
    OptimizerConfig,
    Scenario,
    initialize_iterate,
    physical_violations,
    tight_iterate,
)
from fsotraj.numerics import ks_distance
from fsotraj.optimizer import dinkelbach_solve, energy_efficiency, optimize
from fsotraj.subproblem import Subproblem
from reference_box import eigenbasis_program, projected_gradient_batch, random_box_programs
from test_subproblem import moving_scenario, random_feasible_iterate

MRAD2 = 1e-6

TABLE_ROWS = [
    (0.0, 0.0, 0.9664, 0.0522),
    (0.0, 0.5, 0.9202, 0.0324),
    (math.pi / 2, 0.0, 0.3797, 0.0891),
    (math.pi / 2, 0.5, 0.3723, 0.0640),
]


def report(name, detail):
    print(f"[PASS] {name}: {detail}")


def test_reference_table_hoyt_parameters():
    t0 = time.perf_counter()
    closed = []
    for yaw, rho, lam1_ref, lam2_ref in TABLE_ROWS:
        cov, u_hat = analysis_geometry(yaw=yaw, rho=rho)
        params = hoyt_params(cov, u_hat)
        closed.append(params)
        assert params.lam1 / MRAD2 == pytest.approx(lam1_ref, rel=0.02)
        assert params.lam2 / MRAD2 == pytest.approx(lam2_ref, rel=0.02)
    closed_time = time.perf_counter() - t0
    assert closed_time < 1.0

    t0 = time.perf_counter()
    for (yaw, rho, _, _), params in zip(TABLE_ROWS, closed):
        cov, u_hat = analysis_geometry(yaw=yaw, rho=rho)
        samples = sample_error_angles(cov, u_hat, 10**6, seed=101, mode="exact")
        assert float(np.mean(samples**2)) == pytest.approx(params.omega, rel=0.01)
    mc_time = time.perf_counter() - t0
    assert mc_time < 30.0
    report(
        "reference-table eigenvalues",
        f"4 rows within 2%; closed form {closed_time * 1e3:.0f} ms, Monte Carlo {mc_time:.1f} s",
    )


def test_distribution_law_ks():
    worst = 0.0
    for yaw, rho, _, _ in TABLE_ROWS:
        cov, u_hat = analysis_geometry(yaw=yaw, rho=rho)
        params = hoyt_params(cov, u_hat)
        samples = sample_error_angles(cov, u_hat, 10**6, seed=7, mode="exact")
        dist = ks_distance(samples, lambda x: hoyt_cdf(x, params))
        worst = max(worst, dist)
        assert dist <= 0.005
    report("distribution law", f"KS distance <= {worst:.5f} over 4 configurations (limit 0.005)")


def test_moment_identity_random_geometries(rng):
    worst = 0.0
    for _ in range(20):
        sig = rng.uniform(0.05e-3, 2e-3, size=3)
        rho = rng.uniform(-0.4, 0.4, size=3)
        cov = JitterCovariance(tuple(sig), tuple(rho))
        u_hat = rng.normal(scale=500.0, size=3)
        u_hat[2] -= 600.0
        params = hoyt_params(cov, u_hat)
        samples = sample_error_angles(cov, u_hat, 10**6, seed=rng.integers(2**32))
        rel = abs(float(np.mean(samples**2)) - params.omega) / params.omega
        worst = max(worst, rel)
        assert rel <= 0.01
    report("moment identity", f"MC mean-square within {worst:.2%} of lam1+lam2 over 20 geometries")


def test_ergodic_capacity_oracle(default_link):
    cov = JitterCovariance.from_mrad((1.0, 0.3, 0.1))
    worst = 0.0
    for z in (400.0, 600.0, 1000.0):
        u_hat = np.array([0.0, 0.0, -z])
        params = hoyt_params(cov, u_hat)
        closed = float(expected_log_gamma(default_link, [z], [[params.lam1, params.lam2]])[0])
        mc = mc_log_gamma(default_link, z, params, n=10**6, seed=42)
        rel = abs(closed - mc.value) / abs(mc.value)
        worst = max(worst, rel)
        assert rel <= 0.005
    report("ergodic capacity oracle", f"closed form within {worst:.3%} of MC at 400/600/1000 m")


def test_linearization_jacobians(rng):
    worst_abs = 0.0
    worst_ratio = 0.0
    for _ in range(100):
        s = np.array([rng.uniform(-400, 400), rng.uniform(-400, 400), 600.0])
        heading = rng.uniform(0, 2 * math.pi)
        speed = rng.uniform(3.0, 60.0)
        v = np.array([speed * math.cos(heading), speed * math.sin(heading), 0.0])
        acc = rng.uniform(0.0, 5.0)
        ang = rng.uniform(0, 2 * math.pi)
        a = np.array([acc * math.cos(ang), acc * math.sin(ang), 0.0])
        anchor = delta_u_coefficients(s, v, a, 9.8)
        direction = rng.normal(size=6)
        direction /= np.linalg.norm(direction)

        def err(scale):
            d = scale * direction
            sp = s + np.array([d[0], d[1], 0.0])
            vp = v + np.array([d[2], d[3], 0.0])
            ap = a + np.array([d[4], d[5], 0.0])
            u_actual = pointing_vector(sp, posture_from_motion(vp, ap, 9.8))
            return float(np.max(np.abs(anchor.jac @ d - (u_actual - anchor.u_hat))))

        e6 = err(1e-6)
        worst_abs = max(worst_abs, e6)
        assert e6 <= 1e-9
        coarse, fine = err(2e-4), err(1e-4)
        if coarse > 1e-10:
            ratio = fine / coarse
            worst_ratio = max(worst_ratio, ratio)
            assert ratio <= 0.3
    report(
        "linearization",
        f"FD error <= {worst_abs:.2e} at 1e-6; halving ratio <= {worst_ratio:.3f} (quartering)",
    )


def test_tightness_suite(rng):
    from fsotraj.optimizer import restriction_tightness

    sc = moving_scenario(n=14)
    worst = 0.0
    for _ in range(50):
        it = random_feasible_iterate(sc, rng)
        gaps = restriction_tightness(it, sc)
        worst = max(worst, max(gaps.values()))
        assert max(gaps.values()) <= 1e-8
    report("tightness suite", f"restriction-anchor gap <= {worst:.2e} over 50 iterates")


@pytest.mark.parametrize("n", [10, 100, 400])
def test_constraint_census(n):
    sc = moving_scenario(n=n, delta=0.2 if n > 20 else 2.0)
    sub = Subproblem(initialize_iterate(sc), sc)
    total = sum(sub.census().values())
    assert total == 13 * n - 3
    report(f"constraint census N={n}", f"{total} families == 13N-3")


def _mission_sanity(scenario, label, budget_s):
    config = OptimizerConfig()
    t0 = time.perf_counter()
    result = optimize(scenario, config)
    elapsed = time.perf_counter() - t0
    assert elapsed < budget_s

    worst_violation = max(r.max_violation for r in result.history)
    assert worst_violation <= 1e-6

    init_plan = initialize_iterate(scenario).plan(scenario.delta, scenario.altitude)
    ee_init = energy_efficiency(init_plan, scenario)
    ee_final = energy_efficiency(result.plan, scenario)
    assert ee_final.efficiency >= ee_init.efficiency

    # Fractional-programming termination identity on a fresh Dinkelbach step
    # from the final plan: F <= 0 up to the solve's gap, and C / P stays near
    # the anchor's efficiency lam (measured 3.6e-9 relative on moving, 3.8e-6
    # on hover).
    it = tight_iterate(scenario, result.plan.positions)
    din = dinkelbach_solve(Subproblem(it, scenario), config.solver_tol)
    rel = abs(din.c_tot / din.p_tot - din.lam_star) / din.lam_star
    assert din.f_value <= din.gap
    assert rel <= 1e-4

    report(
        f"optimization sanity ({label})",
        f"{len(result.history)} outer iterations in {elapsed:.0f} s, "
        f"violations <= {worst_violation:.1e}, efficiency {ee_init.efficiency:.4e} -> "
        f"{ee_final.efficiency:.4e}, F = {din.f_value:.2e} <= gap {din.gap:.2e}, |C/P - lam| / lam = {rel:.1e}",
    )
    return result


def test_optimization_sanity_moving():
    scenario = Scenario(
        start=np.array([54.0, 200.0, 600.0]),
        end=np.array([450.0, 200.0, 600.0]),
        n_slots=100,
        delta=0.2,
        altitude=600.0,
        launch_cost=1e5,
        jitter=JitterCovariance.from_mrad((0.583, 0.583, 0.583)),
    )
    _mission_sanity(scenario, "moving, N=100", budget_s=600.0)


def test_optimization_sanity_hover():
    scenario = Scenario(
        start=np.array([0.0, 0.0, 600.0]),
        end=np.array([0.0, 0.0, 600.0]),
        n_slots=400,
        delta=0.2,
        altitude=600.0,
        launch_cost=4e5,
        initialization=CircularInit(),
        jitter=JitterCovariance.from_mrad((0.583, 0.583, 0.583)),
    )
    _mission_sanity(scenario, "hover, N=400", budget_s=600.0)


def test_dof_comparison_direction():
    truth = JitterCovariance.from_mrad((0.1, 1.0, 0.1))
    scenario = Scenario(
        start=np.array([0.0, 0.0, 600.0]),
        end=np.array([0.0, 0.0, 600.0]),
        n_slots=400,
        delta=0.2,
        altitude=600.0,
        launch_cost=4e5,
        initialization=CircularInit(),
        jitter=truth,
    )
    config = OptimizerConfig()
    efficiencies = {}
    for dof in (1, 3):
        run = optimize(scenario.with_jitter(reduce_jitter_dof(truth, dof)), config)
        efficiencies[dof] = energy_efficiency(run.plan, scenario).efficiency
    assert efficiencies[3] >= efficiencies[1]
    report(
        "DoF comparison direction",
        f"3-DoF-optimized {efficiencies[3]:.6e} >= 1-DoF-optimized {efficiencies[1]:.6e} "
        f"({(efficiencies[3] / efficiencies[1] - 1) * 100:+.3f}%)",
    )


def test_solver_contract(rng):
    count, n = 50, 20
    quad, lin, weights, norm_a, norm_b, lo, hi = random_box_programs(rng, count, n, mu=1.0)
    ref_f, _ = projected_gradient_batch(quad, lin, weights, norm_a, norm_b, lo, hi, iters=2_000)
    worst_obj = 0.0
    worst_kkt = 0.0
    for b in range(count):
        prog = eigenbasis_program(quad[b], lin[b], lo[b], hi[b], weights[b], norm_a[b], norm_b[b])
        sol = solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        for key in ("stationarity", "primal_feas", "dual_feas", "complementarity"):
            assert sol.kkt[key] <= 1e-7
            worst_kkt = max(worst_kkt, sol.kkt[key])
        rel = abs(sol.objective - ref_f[b]) / (1.0 + abs(sol.objective))
        worst_obj = max(worst_obj, rel)
        assert rel <= 1e-5
    report(
        "solver contract",
        f"50 programs: objective within {worst_obj:.2e} of the projected-gradient reference, "
        f"KKT residuals <= {worst_kkt:.2e}",
    )


def test_physical_feasibility_of_final_plans():
    # Companion check: the converged plans satisfy every original mission
    # constraint exactly as physical_violations measures them.
    scenario = moving_scenario(n=20, delta=1.0)
    result = optimize(scenario, OptimizerConfig(max_outer=10))
    from fsotraj.kinematics import differentiate_trajectory

    v, a = differentiate_trajectory(result.plan)
    violations = physical_violations(scenario, result.plan.positions, v, a)
    assert max(violations.values()) <= 1e-6
    report("final-plan feasibility", f"worst violation {max(violations.values()):.2e}")
