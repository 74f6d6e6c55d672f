import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fsotraj.channel import quadrature_ergodic_capacity
from fsotraj.cli import main
from fsotraj.jitter import hoyt_params
from fsotraj.kinematics import pointing_vector
from fsotraj.mission import initialize_iterate
from fsotraj.optimizer import energy_efficiency, optimize
from fsotraj.report import TRACE_HEADER, TRAJECTORY_HEADER, read_csv
from fsotraj.scenario import load_scenario

TINY_MOVING = """
[mission]
kind = moving
start = 54, 200 m
end = 450, 200 m
duration = 20 s
slot = 2 s

[optimizer]
max_outer = 4
samples = 20000
"""

TINY_HOVER = """
[mission]
kind = hover
duration = 60 s
slot = 2 s

[optimizer]
max_outer = 3
samples = 20000
"""


def write_scenario(tmp_path, text, name="scenario.ini"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestPointing:
    def test_writes_csv_and_exits_zero(self, tmp_path, capsys):
        rc = main(["pointing", "--out", str(tmp_path), "--samples", "50000", "--seed", "3"])
        assert rc == 0
        header, data = read_csv(tmp_path / "pointing.csv")
        assert header == ["theta_p", "hoyt_pdf", "empirical_density"]
        assert data.shape[0] == 400
        out = capsys.readouterr().out
        assert "lam1" in out and "ks_distance" in out


class TestPowerAndCapacity:
    def test_power_sweep(self, tmp_path):
        rc = main(["power", "--out", str(tmp_path)])
        assert rc == 0
        header, data = read_csv(tmp_path / "power_sweep.csv")
        assert header == ["speed", "accel", "power"]
        assert np.all(data[:, 2] > 0.0)

    def test_capacity_grid(self, tmp_path):
        rc = main(["capacity", "--out", str(tmp_path), "--extent", "100", "--grid", "4"])
        assert rc == 0
        header, data = read_csv(tmp_path / "capacity_grid.csv")
        assert header[:3] == ["x", "y", "distance"]
        assert data.shape[0] == 16
        # Bound never exceeds the quadrature value of the true expectation.
        assert np.all(data[:, 4] <= data[:, 5] + 1e-9)
        # One batched call over the grid gives each point's scalar quadrature.
        settings = load_scenario("")
        sc, posture = settings.scenario, settings.pointing.posture
        for x, y, z, *_, quad in data:
            pos = np.array([x, y, sc.altitude])
            hoyt = hoyt_params(sc.jitter, pointing_vector(pos, posture))
            want = quadrature_ergodic_capacity(sc.link, float(np.linalg.norm(pos)), hoyt)
            assert quad == pytest.approx(want, rel=1e-14, abs=0.0)


class TestOptimize:
    def test_full_run_outputs(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, TINY_MOVING)
        out = tmp_path / "run"
        rc = main(["optimize", "--scenario", scenario, "--out", str(out)])
        assert rc == 0
        manifest = {p.name for p in out.iterdir()}
        assert manifest >= {"scenario.echo", "trajectory.csv", "efficiency_trace.csv",
                            "validation.csv", "report", "timings.json"}
        header, data = read_csv(out / "trajectory.csv")
        assert header == TRAJECTORY_HEADER
        assert data.shape[0] == 10  # N rows
        report_text = (out / "report").read_text()
        assert "efficiency:" in report_text
        # Wall-clock time goes to timings.json only, so the report is deterministic.
        assert "wall_time" not in report_text
        assert json.loads((out / "timings.json").read_text())["wall_time_s"] > 0.0
        # The trace records each outer iteration's Newton steps and solve tolerance.
        header, trace = read_csv(out / "efficiency_trace.csv")
        assert header == TRACE_HEADER
        settings = load_scenario(scenario)
        history = optimize(settings.scenario, settings.optimizer).history
        assert trace[:, header.index("newton_iters")].tolist() == [r.newton_iters for r in history]
        assert trace[:, header.index("solver_tol")].tolist() == [r.solver_tol for r in history]

    def test_byte_identical_reruns(self, tmp_path):
        scenario = write_scenario(tmp_path, TINY_MOVING)
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["optimize", "--scenario", scenario, "--out", str(out_a), "--seed", "5"]) == 0
        assert main(["optimize", "--scenario", scenario, "--out", str(out_b), "--seed", "5"]) == 0
        for name in ("trajectory.csv", "efficiency_trace.csv", "scenario.echo", "report", "validation.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_validate_roundtrip_after_optimize(self, tmp_path):
        scenario = write_scenario(tmp_path, TINY_MOVING)
        out = tmp_path / "run"
        assert main(["optimize", "--scenario", scenario, "--out", str(out)]) == 0
        rc = main(["validate", "--scenario", scenario, "--out", str(out), "--samples", "200000"])
        assert rc == 0
        header, data = read_csv(out / "validation.csv")
        assert all(p == 1.0 for p in data[:, -1])


class TestExitCodes:
    def test_parse_error_exit_2(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "[link]\naperture = -5 m\n")
        assert main(["optimize", "--scenario", scenario, "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["power", "--mode", "monte_carlo"],
            ["capacity", "--seed", "3"],
            ["optimize", "--samples", "1000"],
            ["validate", "--mode", "monte_carlo"],
        ],
    )
    def test_flag_the_command_does_not_read_exits_2(self, argv, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_validate_malformed_trajectory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "trajectory.csv").write_text("t,x,y\n0,54,200\n", encoding="utf-8")
        assert main(["validate", "--out", str(out), "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert "trajectory.csv" in err and "header" in err
        assert not (out / "validation.csv").exists()

    def test_infeasible_exit_3(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path, "[mission]\nkind = moving\nduration = 1 s\nslot = 0.2 s\n"
        )
        assert main(["optimize", "--scenario", scenario, "--out", str(tmp_path / "x")]) == 3

    @pytest.mark.parametrize(
        "text, path",
        [
            ("[optimizer]\nmax_outer = ten\n", "optimizer.max_outer"),
            ("[optimizer]\nmax_outer = 2.5\n", "optimizer.max_outer"),
            ("[optimizer]\nmax_outer = 0\n", "optimizer.max_outer"),
            ("[optimizer]\nmax_outer = -1\n", "optimizer.max_outer"),
            ("[optimizer]\nseed = x\n", "optimizer.seed"),
            ("[optimizer]\nseed = -1\n", "optimizer.seed"),
            ("[optimizer]\nsamples = 0\n", "optimizer.samples"),
            ("[mission]\nslot = nan s\n", "mission.slot"),
            ("[link]\naperture = nan m\n", "link.aperture"),
            ("[aircraft]\nv_max = inf m/s\n", "aircraft.v_max"),
            ("[link]\naperture = 20% m\n", "link.aperture"),
            ("[DEFAULT]\nseed = 3\n", "DEFAULT"),
            ("seed = 3\n", "scenario"),
            ("[optimizer]\nseed = 3\nseed = 4\n", "scenario"),
        ],
    )
    def test_malformed_value_exits_2_naming_the_field(self, text, path, tmp_path, capsys):
        scenario = write_scenario(tmp_path, text)
        assert main(["power", "--scenario", scenario, "--out", str(tmp_path / "x")]) == 2
        assert f"error: {path}: " in capsys.readouterr().err

    @pytest.mark.parametrize("tol", ["0", "-1e-8"])
    def test_nonpositive_solver_tol_exits_2_before_any_solve(self, tol, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fsotraj.cli.optimize", lambda *a, **k: pytest.fail("optimize ran"))
        scenario = write_scenario(tmp_path, f"[optimizer]\nsolver_tol = {tol}\n")
        assert main(["optimize", "--scenario", scenario, "--out", str(tmp_path / "x")]) == 2
        assert "error: optimizer: solver_tol must be positive" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, path",
        [
            (["pointing", "--samples", "0"], "optimizer.samples"),
            (["pointing", "--seed", "-1"], "optimizer.seed"),
            (["validate", "--samples", "1.5"], "optimizer.samples"),
            (["optimize", "--seed", "-2", "--mode", "monte_carlo"], "optimizer.seed"),
        ],
    )
    def test_bad_seed_or_samples_flag_exits_2_before_any_work(self, argv, path, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fsotraj.cli.optimize", lambda *a, **k: pytest.fail("optimize ran"))
        assert main([*argv, "--out", str(tmp_path)]) == 2
        assert f"error: {path}: " in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestCompareDof:
    def test_relative_table(self, tmp_path, capsys):
        scenario = write_scenario(
            tmp_path,
            TINY_HOVER + "[jitter]\nsigma_roll = 0.1 mrad\nsigma_pitch = 1 mrad\nsigma_yaw = 0.1 mrad\n",
        )
        out = tmp_path / "dof"
        rc = main(["compare-dof", "--scenario", scenario, "--out", str(out)])
        assert rc == 0
        header, data = read_csv(out / "dof_comparison.csv")
        assert header == ["model", "efficiency", "relative_percent"]
        assert data.shape[0] == 4
        assert data[0, 0] == "3dof"
        assert data[0, 2] == pytest.approx(100.0)  # 3dof row normalized to 100%
        assert {p.name for p in out.iterdir()} >= {
            "dof_comparison.csv",
            "trajectory_1dof.csv",
            "trajectory_2dof.csv",
            "trajectory_3dof.csv",
        }

    def test_moving_reference_row_is_the_initial_plan(self, tmp_path, capsys):
        # A moving mission starts from a straight line, not a circle.
        scenario = write_scenario(tmp_path, TINY_MOVING)
        out = tmp_path / "dof"
        assert main(["compare-dof", "--scenario", scenario, "--out", str(out)]) == 0
        header, data = read_csv(out / "dof_comparison.csv")
        assert data[:, 0].tolist() == ["3dof", "2dof", "1dof", "initial_plan"]
        sc = load_scenario(scenario).scenario
        initial = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        assert np.all(initial.positions[:, 1] == 200.0)  # the line from (54, 200) to (450, 200)
        assert float(data[3, 1]) == pytest.approx(energy_efficiency(initial, sc, seed=sc.seed).efficiency, rel=1e-9)
        printed = capsys.readouterr().out
        assert "initial_plan" in printed and "circular" not in printed

    def test_correlated_jitter_optimizes_but_does_not_reduce(self, tmp_path, capsys, monkeypatch):
        scenario = write_scenario(tmp_path, TINY_MOVING + "[jitter]\nrho_roll_pitch = 0.6\n")
        assert main(["optimize", "--scenario", scenario, "--out", str(tmp_path / "run")]) == 0
        # The DoF reductions are defined for uncorrelated jitter only: exit 2
        # with the reduction's own error, before any solve.
        monkeypatch.setattr("fsotraj.cli.optimize", lambda *a, **k: pytest.fail("compare-dof solved"))
        out = tmp_path / "dof"
        assert main(["compare-dof", "--scenario", scenario, "--out", str(out)]) == 2
        assert "uncorrelated" in capsys.readouterr().err
        assert not list(out.glob("trajectory_*dof.csv"))


class TestScripts:
    def test_pointing_driver_runs_from_a_checkout(self, tmp_path):
        # The drivers put the checkout's src/ on sys.path themselves.
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_pointing_analysis.py"
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
        run = subprocess.run(
            [sys.executable, str(script), str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "out" / "pointing.csv").exists()
