"""Command-line entry points.

Subcommands: pointing, capacity, power, optimize, validate, compare-dof.
Exit codes: 0 ok, 2 validation or input failure, 3 infeasible scenario,
4 solver failure.
"""
from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import channel
from .errors import BracketError, FsoTrajError, InfeasibleScenarioError, ScenarioParseError, SolverError
from .jitter import (
    HoytParams,
    hoyt_cdf,
    hoyt_eigenvalues,
    hoyt_params,
    hoyt_pdf,
    reduce_jitter_dof,
    sample_error_angles,
)
from .kinematics import flight_power, pointing_vector
from .mission import initialize_iterate
from .numerics import ks_distance
from .optimizer import energy_efficiency, optimize
from .report import (
    RunReport,
    ValidationRow,
    read_plan,
    read_report_value,
    write_csv,
    write_outputs,
    write_validation,
)
from .scenario import RunSettings, dump_scenario, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _load(args) -> RunSettings:
    if args.scenario is None:
        return load_scenario("")  # pure defaults
    return load_scenario(args.scenario)


def _apply_overrides(settings: RunSettings, args) -> RunSettings:
    sc = settings.scenario
    if getattr(args, "seed", None) is not None:
        sc = replace(sc, seed=args.seed)
    if getattr(args, "samples", None) is not None:
        sc = replace(sc, mc_samples=args.samples)
    settings.scenario = sc
    return settings


def cmd_pointing(args) -> int:
    settings = _apply_overrides(_load(args), args)
    sc = settings.scenario
    geom = settings.pointing
    u_hat = pointing_vector(geom.position, geom.posture)
    params = hoyt_params(sc.jitter, u_hat)
    n = sc.mc_samples
    samples = sample_error_angles(sc.jitter, u_hat, n, seed=sc.seed, mode="exact")
    mc_omega = float(np.mean(samples**2))
    ks = ks_distance(samples, lambda x: hoyt_cdf(x, params))

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    grid = np.linspace(0.0, 1.05 * float(np.max(samples)), 401)
    centers = 0.5 * (grid[1:] + grid[:-1])
    hist, _ = np.histogram(samples, bins=grid, density=True)
    pdf = hoyt_pdf(centers, params)
    write_csv(out / "pointing.csv", ["theta_p", "hoyt_pdf", "empirical_density"],
              zip(centers, pdf, hist))

    print(f"lam1 = {params.lam1 * 1e6:.6f} mrad^2")
    print(f"lam2 = {params.lam2 * 1e6:.6f} mrad^2")
    print(f"q = {params.q:.6f}")
    print(f"omega = {params.omega * 1e6:.6f} mrad^2")
    print(f"mc_mean_square = {mc_omega * 1e6:.6f} mrad^2 (n = {n})")
    print(f"ks_distance = {ks:.6f}")
    print(f"wrote {out / 'pointing.csv'}")
    return EXIT_OK


def cmd_capacity(args) -> int:
    settings = _load(args)
    sc = settings.scenario
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    coords = np.linspace(-args.extent, args.extent, args.grid)
    x, y = (grid.ravel() for grid in np.meshgrid(coords, coords, indexing="ij"))
    pos = np.column_stack([x, y, np.full(len(x), sc.altitude)])
    u_hat = np.array([pointing_vector(p, settings.pointing.posture) for p in pos])
    lam = hoyt_eigenvalues(sc.jitter, u_hat)
    z = np.linalg.norm(pos, axis=1)
    elg = np.array([channel.expected_log_gamma(sc.link, zk, HoytParams(*lk)) for zk, lk in zip(z, lam)])
    bound = channel.ergodic_capacity(elg, np.exp(elg))
    quad = channel.quadrature_capacities(sc.link, z, lam)
    rows = list(zip(x, y, z, elg, bound, quad))
    write_csv(
        out / "capacity_grid.csv",
        ["x", "y", "distance", "e_log_gamma", "capacity_bound", "capacity_quadrature"],
        rows,
    )
    print(f"wrote {out / 'capacity_grid.csv'} ({len(rows)} points)")
    return EXIT_OK


def cmd_power(args) -> int:
    settings = _load(args)
    craft = settings.scenario.aircraft
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    speeds = np.linspace(craft.v_min, craft.v_max, 200)
    rows = []
    for acc in (0.0, craft.a_max / 2.0, craft.a_max):
        for sp in speeds:
            p = flight_power(np.array([sp, 0.0, 0.0]), np.array([0.0, acc, 0.0]), craft)
            rows.append((sp, acc, p))
    write_csv(out / "power_sweep.csv", ["speed", "accel", "power"], rows)
    print(f"wrote {out / 'power_sweep.csv'}")
    return EXIT_OK


def _run_report(settings: RunSettings, mode: str) -> RunReport:
    sc = settings.scenario
    result = optimize(sc, settings.optimizer)
    eff = energy_efficiency(result.plan, sc, mode=mode, seed=sc.seed)
    return RunReport(
        scenario_echo=dump_scenario(settings),
        plan=result.plan,
        scenario=sc,
        history=result.history,
        efficiency=eff,
        converged=result.converged,
        wall_time=result.wall_time,
    )


def cmd_optimize(args) -> int:
    settings = _apply_overrides(_load(args), args)
    report = _run_report(settings, args.mode)
    manifest = write_outputs(report, args.out)
    print(f"efficiency = {report.efficiency.efficiency:.9e} bits/J")
    print(f"converged = {report.converged} after {len(report.history)} outer iterations")
    print(f"wrote {len(manifest)} files to {args.out}: {', '.join(manifest)}")
    return EXIT_OK


def cmd_validate(args) -> int:
    settings = _apply_overrides(_load(args), args)
    sc = settings.scenario
    rng_seed = sc.seed
    n = min(sc.mc_samples, 10**6)
    rows: list[ValidationRow] = []

    geom = settings.pointing
    u_hat = pointing_vector(geom.position, geom.posture)
    params = hoyt_params(sc.jitter, u_hat)
    samples = sample_error_angles(sc.jitter, u_hat, n, seed=rng_seed, mode="exact")
    rows.append(ValidationRow("moment_mc_vs_trace", params.omega, float(np.mean(samples**2)), 0.01))

    grid = np.linspace(0.0, 14.0 * math.sqrt(params.omega), 200_001)
    total = float(np.trapezoid(hoyt_pdf(grid, params), grid))
    rows.append(ValidationRow("pdf_normalization", 1.0, total, 1e-5))

    ks = ks_distance(samples, lambda x: hoyt_cdf(x, params))
    rows.append(ValidationRow("ks_distance_below_0.005", 0.005, ks, one_sided=True))

    z = float(np.linalg.norm(geom.position))
    closed = channel.expected_log_gamma(sc.link, z, params)
    mc = channel.mc_log_gamma(sc.link, z, sc.jitter, u_hat, n=n, seed=rng_seed)
    rows.append(ValidationRow("expected_log_gamma_vs_mc", mc.value, closed, 0.005))

    rng = np.random.default_rng(rng_seed)
    h_a = np.exp(-2.0 * sc.link.sigma_i**2 + 2.0 * sc.link.sigma_i * rng.standard_normal(n))
    rows.append(ValidationRow("scintillation_unbiased", 1.0, float(np.mean(h_a)), 0.005))

    bound = channel.ergodic_capacity(closed, math.exp(closed))
    cap_mc = channel.mc_ergodic_capacity(sc.link, z, sc.jitter, u_hat, n=n, seed=rng_seed)
    rows.append(
        ValidationRow(
            "capacity_bound_below_mc",
            cap_mc.value + 3.0 * cap_mc.stderr,
            bound,
            one_sided=True,
        )
    )

    out = Path(args.out)
    traj = out / "trajectory.csv"
    if traj.exists():
        plan = read_plan(traj, sc.delta, sc.altitude)
        recomputed = energy_efficiency(plan, sc, mode="closed_form", seed=sc.seed)
        reported = read_report_value(out, "efficiency")
        rows.append(ValidationRow("efficiency_roundtrip", reported, recomputed.efficiency, 1e-9))

    out.mkdir(parents=True, exist_ok=True)
    write_validation(out / "validation.csv", rows)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        print(f"[{'FAIL' if not r.passed else 'ok'}] {r.check}: "
              f"reference={r.reference:.6g} estimate={r.estimate:.6g}")
    print(f"wrote {out / 'validation.csv'}")
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_compare_dof(args) -> int:
    settings = _apply_overrides(_load(args), args)
    truth_scenario = settings.scenario
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    results = {}
    for dof in (1, 2, 3):
        reduced = reduce_jitter_dof(truth_scenario.jitter, dof)
        run = optimize(truth_scenario.with_jitter(reduced), settings.optimizer)
        eff = energy_efficiency(run.plan, truth_scenario, mode=args.mode, seed=truth_scenario.seed)
        results[f"{dof}dof"] = eff.efficiency
        write_csv(
            out / f"trajectory_{dof}dof.csv",
            ["t", "x", "y"],
            (
                (k * run.plan.delta, run.plan.positions[k, 0], run.plan.positions[k, 1])
                for k in range(run.plan.n_slots)
            ),
        )
    initial = initialize_iterate(truth_scenario).plan(truth_scenario.delta, truth_scenario.altitude)
    results["initial_plan"] = energy_efficiency(
        initial, truth_scenario, mode=args.mode, seed=truth_scenario.seed
    ).efficiency

    anchor = results["3dof"]
    rows = [
        (name, results[name], 100.0 * results[name] / anchor)
        for name in ("3dof", "2dof", "1dof", "initial_plan")
    ]
    write_csv(out / "dof_comparison.csv", ["model", "efficiency", "relative_percent"], rows)
    for name, eff_val, rel in rows:
        print(f"{name:18s} efficiency={eff_val:.9e}  relative={rel:8.3f}%")
    print(f"wrote {out / 'dof_comparison.csv'}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="fsotraj", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help_text, seed=False, samples=False, mode=False):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--scenario", type=str, default=None, help="scenario file path")
        p.add_argument("--out", type=str, default="out", help="output directory")
        if seed:
            p.add_argument("--seed", type=int, default=None, help="override the scenario seed")
        if samples:
            p.add_argument("--samples", type=int, default=None, help="Monte Carlo sample count")
        if mode:
            p.add_argument(
                "--mode",
                choices=("closed_form", "monte_carlo"),
                default="closed_form",
                help="efficiency evaluation mode",
            )
        return p

    command("pointing", "pointing-error law for a fixed geometry", seed=True, samples=True)
    p_cap = command("capacity", "ergodic capacity over a position grid")
    p_cap.add_argument("--extent", type=float, default=500.0, help="half-width of the grid, m")
    p_cap.add_argument("--grid", type=int, default=21, help="points per axis")
    command("power", "flight-power sweep over speed and acceleration")
    command("optimize", "run the trajectory optimization", seed=True, mode=True)
    command("validate", "closed forms vs Monte Carlo, plus output round-trip", seed=True, samples=True)
    command("compare-dof", "optimize under reduced jitter models", seed=True, mode=True)
    return parser


_COMMANDS = {
    "pointing": cmd_pointing,
    "capacity": cmd_capacity,
    "power": cmd_power,
    "optimize": cmd_optimize,
    "validate": cmd_validate,
    "compare-dof": cmd_compare_dof,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ScenarioParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (InfeasibleScenarioError,) as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except (SolverError, BracketError) as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FsoTrajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
