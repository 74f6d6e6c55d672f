"""Command-line entry points.

Subcommands: pointing, capacity, power, optimize, validate, compare-dof.
Exit codes: 0 ok, 2 validation or input failure, 3 infeasible scenario,
4 solver failure.
"""
from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

import numpy as np

from . import channel
from .errors import FsoTrajError, InfeasibleScenarioError, ScenarioParseError, SolverError
from .jitter import (
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
from .optimizer import EFFICIENCY_MODES, energy_efficiency, optimize
from .report import (
    RunReport,
    ValidationRow,
    read_plan,
    read_report_value,
    write_csv,
    write_outputs,
    write_validation,
)
from .scenario import RunSettings, dump_scenario, echo_seed, load_scenario

EXIT_OK = 0
EXIT_VALIDATION = 2
EXIT_INFEASIBLE = 3
EXIT_SOLVER = 4


def _load(args) -> tuple[RunSettings, Path]:
    """The scenario file (the defaults without one), with --seed and --samples
    parsed and checked as the keys they replace, and the created --out directory."""
    flags = {key: getattr(args, key, None) for key in ("seed", "samples")}
    overrides = {("optimizer", key): raw for key, raw in flags.items() if raw is not None}
    settings = load_scenario(args.scenario or "", overrides)
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise FsoTrajError(f"cannot create --out directory {out}: {exc.strerror}") from exc
    return settings, out


def _sampled_law(settings: RunSettings, n: int):
    """The pointing geometry's Hoyt law, n exact-rotation error samples and
    their KS distance from the law."""
    sc, geom = settings.scenario, settings.pointing
    u_hat = pointing_vector(geom.position, geom.posture)
    params = hoyt_params(sc.jitter, u_hat)
    if params.omega == 0.0:
        raise FsoTrajError("zero jitter: the pointing error at this geometry is identically 0 and has no density")
    samples = sample_error_angles(sc.jitter, u_hat, n, seed=sc.seed)
    return params, samples, ks_distance(samples, lambda x: hoyt_cdf(x, params))


def _run_seed(out: Path) -> int:
    """The seed the run in ``out`` drew from: ``optimizer.seed`` in its
    scenario.echo. FsoTrajError, naming the file, if the echo cannot be read,
    does not load or gives no seed."""
    echo = out / "scenario.echo"
    try:
        text = echo.read_text(encoding="utf-8")
    except OSError as exc:
        raise FsoTrajError(f"{echo}: cannot read the run's scenario echo: {exc.strerror}") from exc
    try:
        return echo_seed(text)
    except ScenarioParseError as exc:
        raise FsoTrajError(f"{echo}: {exc}") from exc


def cmd_pointing(args) -> int:
    settings, out = _load(args)
    n = settings.scenario.mc_samples
    params, samples, ks = _sampled_law(settings, n)
    mc_omega = float(np.mean(samples**2))
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
    if args.grid < 1 or not math.isfinite(args.extent):
        raise FsoTrajError(f"need --grid >= 1 and a finite --extent, got {args.grid} and {args.extent}")
    settings, out = _load(args)
    sc = settings.scenario
    coords = np.linspace(-args.extent, args.extent, args.grid)
    x, y = (grid.ravel() for grid in np.meshgrid(coords, coords, indexing="ij"))
    pos = np.column_stack([x, y, np.full(len(x), sc.altitude)])
    lam = hoyt_eigenvalues(sc.jitter, pointing_vector(pos, settings.pointing.posture))
    z = np.linalg.norm(pos, axis=1)
    elg = channel.expected_log_gamma(sc.link, z, lam)
    bound = channel.tight_capacity_bound(elg)
    quad = channel.quadrature_capacities(sc.link, z, lam)
    rows = np.column_stack([x, y, z, elg, bound, quad])
    write_csv(
        out / "capacity_grid.csv",
        ["x", "y", "distance", "e_log_gamma", "capacity_bound", "capacity_quadrature"],
        rows,
    )
    print(f"wrote {out / 'capacity_grid.csv'} ({len(rows)} points)")
    return EXIT_OK


def cmd_power(args) -> int:
    settings, out = _load(args)
    craft = settings.scenario.aircraft
    speed = np.tile(np.linspace(craft.v_min, craft.v_max, 200), 3)
    accel = np.repeat([0.0, craft.a_max / 2.0, craft.a_max], 200)
    zero = np.zeros_like(speed)
    power = flight_power(np.column_stack([speed, zero, zero]), np.column_stack([zero, accel, zero]), craft)
    write_csv(out / "power_sweep.csv", ["speed", "accel", "power"], np.column_stack([speed, accel, power]))
    print(f"wrote {out / 'power_sweep.csv'}")
    return EXIT_OK


def cmd_optimize(args) -> int:
    settings, out = _load(args)
    sc = settings.scenario
    result = optimize(sc, settings.optimizer)
    eff = energy_efficiency(result.plan, sc, mode=args.mode)
    manifest = write_outputs(RunReport(dump_scenario(settings), sc, result, eff), out)
    print(f"efficiency = {eff.efficiency:.9e} bits/J")
    print(f"converged = {result.converged} after {len(result.history)} outer iterations")
    print(f"wrote {len(manifest)} files to {args.out}: {', '.join(manifest)}")
    return EXIT_OK


def cmd_validate(args) -> int:
    settings, out = _load(args)
    sc = settings.scenario
    traj = out / "trajectory.csv"
    plan = reported = mode = run_seed = None
    if traj.exists():
        plan = read_plan(traj, sc.delta, sc.altitude)
        reported = read_report_value(out, "efficiency")
        mode = read_report_value(out, "efficiency_mode", EFFICIENCY_MODES)
        run_seed = _run_seed(out)
    rng_seed = sc.seed
    n = sc.mc_samples
    params, samples, ks = _sampled_law(settings, n)
    rows = [ValidationRow("moment_mc_vs_trace", params.omega, float(np.mean(samples**2)), 0.01)]

    grid = np.linspace(0.0, 14.0 * math.sqrt(params.omega), 200_001)
    total = float(np.trapezoid(hoyt_pdf(grid, params), grid))
    rows.append(ValidationRow("pdf_normalization", 1.0, total, 1e-5))

    rows.append(ValidationRow("ks_distance_below_0.005", 0.005, ks, one_sided=True))

    z = float(np.linalg.norm(settings.pointing.position))
    closed = float(channel.expected_log_gamma(sc.link, [z], [[params.lam1, params.lam2]])[0])
    mc = channel.mc_log_gamma(sc.link, z, params, n=n, seed=rng_seed)
    rows.append(ValidationRow("expected_log_gamma_vs_mc", mc.value, closed, 0.005))

    rng = np.random.default_rng(rng_seed)
    h_a = np.exp(-2.0 * sc.link.sigma_i**2 + 2.0 * sc.link.sigma_i * rng.standard_normal(n))
    rows.append(ValidationRow("scintillation_unbiased", 1.0, float(np.mean(h_a)), 0.005))

    bound = float(channel.tight_capacity_bound(closed))
    cap_mc = channel.mc_ergodic_capacity(sc.link, z, params, n=n, seed=rng_seed)
    rows.append(
        ValidationRow(
            "capacity_bound_below_mc",
            cap_mc.value + 3.0 * cap_mc.stderr,
            bound,
            one_sided=True,
        )
    )

    if plan is not None:
        recomputed = energy_efficiency(plan, sc, mode=mode, seed=run_seed)
        rows.append(ValidationRow("efficiency_roundtrip", reported, recomputed.efficiency, 1e-9))

    write_validation(out / "validation.csv", rows)
    failed = [r for r in rows if not r.passed]
    for r in rows:
        print(f"[{'FAIL' if not r.passed else 'ok'}] {r.check}: "
              f"reference={r.reference:.6g} estimate={r.estimate:.6g}")
    print(f"wrote {out / 'validation.csv'}")
    return EXIT_VALIDATION if failed else EXIT_OK


def cmd_compare_dof(args) -> int:
    settings, out = _load(args)
    truth_scenario = settings.scenario

    results = {}
    for dof in (1, 2, 3):
        reduced = reduce_jitter_dof(truth_scenario.jitter, dof)
        run = optimize(truth_scenario.with_jitter(reduced), settings.optimizer)
        eff = energy_efficiency(run.plan, truth_scenario, mode=args.mode)
        results[f"{dof}dof"] = eff.efficiency
        write_csv(
            out / f"trajectory_{dof}dof.csv",
            ["t", "x", "y"],
            np.column_stack([np.arange(run.plan.n_slots) * run.plan.delta, run.plan.positions[:, :2]]),
        )
    initial = initialize_iterate(truth_scenario).plan(truth_scenario.delta, truth_scenario.altitude)
    results["initial_plan"] = energy_efficiency(initial, truth_scenario, mode=args.mode).efficiency

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
            p.add_argument("--seed", default=None, help="override the scenario seed")
        if samples:
            p.add_argument("--samples", default=None, help="Monte Carlo sample count")
        if mode:
            p.add_argument(
                "--mode",
                choices=EFFICIENCY_MODES,
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
    except InfeasibleScenarioError as exc:
        print(f"error: infeasible scenario: {exc}", file=sys.stderr)
        return EXIT_INFEASIBLE
    except SolverError as exc:
        print(f"error: solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except FsoTrajError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
