import importlib.util
import json
import math
import re
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from fsotraj.channel import quadrature_ergodic_capacity
from fsotraj.cli import main
from fsotraj.errors import FsoTrajError, SolverError
from fsotraj.jitter import hoyt_params
from fsotraj.kinematics import differentiate_trajectory, flight_power, pointing_vector, roll_from_motion, yaw_from_velocity
from fsotraj.mission import accel_slots, initialize_iterate
from fsotraj.optimizer import IterationRecord, energy_efficiency, optimize
from fsotraj.report import TRACE_HEADER, TRAJECTORY_HEADER, ValidationRow, read_csv, read_plan
from fsotraj.scenario import load_scenario
from reference_slots import expected_log_gamma_slot

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"

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


    @pytest.mark.parametrize("command", ["pointing", "validate"])
    def test_zero_jitter_exits_2_before_writing_anything(self, command, tmp_path, capsys):
        # With no attitude jitter the error angle is a point mass at 0: no
        # density to compare the samples with.
        scenario = write_scenario(
            tmp_path, "[jitter]\nsigma_roll = 0 mrad\nsigma_pitch = 0 mrad\nsigma_yaw = 0 mrad\n"
        )
        out = tmp_path / "out"
        assert main([command, "--scenario", scenario, "--out", str(out), "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: zero jitter") and err.count("\n") == 1
        assert not any(out.iterdir())


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
        # One batched call over the grid gives each point's scalar closed
        # form, its anchor-tight bound log2(1 + exp(E[log Gamma])) / 2 and its
        # scalar quadrature.
        settings = load_scenario("")
        sc, posture = settings.scenario, settings.pointing.posture
        for x, y, z, elg, bound, quad in data:
            pos = np.array([x, y, sc.altitude])
            hoyt = hoyt_params(sc.jitter, pointing_vector(pos, posture))
            want_elg = expected_log_gamma_slot(sc.link, float(np.linalg.norm(pos)), hoyt)
            assert elg == pytest.approx(want_elg, rel=1e-14, abs=0.0)
            assert bound == pytest.approx(math.log1p(math.exp(want_elg)) / (2.0 * math.log(2.0)), rel=1e-14, abs=0.0)
            want = quadrature_ergodic_capacity(sc.link, float(np.linalg.norm(pos)), hoyt)
            assert quad == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_capacity_bound_finite_where_the_anchor_overflows(self, tmp_path):
        # At 1e160 W every E[log Gamma] is near 747, so the tight anchor
        # exp(E[log Gamma]) overflows a double; the bound itself,
        # log(1 + exp(E)) / (2 log 2), stays finite.
        scenario = write_scenario(tmp_path, "[link]\ntransmit_power = 1e160 W\n")
        out = tmp_path / "cap"
        assert main(["capacity", "--scenario", scenario, "--out", str(out), "--grid", "3"]) == 0
        header, data = read_csv(out / "capacity_grid.csv")
        elg, bound = data[:, header.index("e_log_gamma")], data[:, header.index("capacity_bound")]
        assert np.all(elg > 709.0)
        np.testing.assert_allclose(bound, elg / (2.0 * math.log(2.0)), rtol=1e-15, atol=0.0)
        np.testing.assert_allclose(bound, data[:, header.index("capacity_quadrature")], rtol=1e-12, atol=0.0)

        # validate computes the same bound for its one geometry: it runs
        # through, and the bound meets the Monte Carlo capacity, which the
        # jitter barely lowers at this SNR.
        main(["validate", "--scenario", scenario, "--out", str(out), "--samples", "20000"])
        lines = (out / "validation.csv").read_text().splitlines()
        _, mc, bound, *_ = next(line.split(",") for line in lines if line.startswith("capacity_bound_below_mc,"))
        assert math.isfinite(float(bound))
        assert float(bound) == pytest.approx(float(mc), rel=1e-12, abs=0.0)

    def test_validate_passes_where_the_bound_is_tight(self, tmp_path):
        # At 1e160 W and the scenario's sample count the bound sits one ulp
        # above the Monte Carlo capacity plus three standard errors (8e-17).
        scenario = write_scenario(tmp_path, "[link]\ntransmit_power = 1e160 W\n")
        out = tmp_path / "val"
        assert main(["validate", "--scenario", scenario, "--out", str(out)]) == 0
        header, data = read_csv(out / "validation.csv")
        assert all(p == 1.0 for p in data[:, -1])

    def test_one_sided_row_fails_past_rounding(self):
        # The one-sided rows forgive rounding only, not a real excess.
        tight, ulp_above = 539.3532405987636, 539.3532405987637
        assert ValidationRow("bound", tight, ulp_above, one_sided=True).passed
        assert not ValidationRow("bound", tight, tight * (1.0 + 1e-9), one_sided=True).passed
        assert not ValidationRow("bound", 1.0, 1.0 + 1e-9, one_sided=True).passed

    @pytest.mark.parametrize(
        "flag, value",
        [("--grid", "0"), ("--grid", "-1"), ("--extent", "nan"), ("--extent", "inf"), ("--extent", "-inf")],
    )
    def test_bad_capacity_grid_exits_2_before_any_work(self, flag, value, tmp_path, capsys):
        out = tmp_path / "cap"
        assert main(["capacity", "--out", str(out), f"{flag}={value}"]) == 2
        assert "error: need --grid >= 1 and a finite --extent" in capsys.readouterr().err
        assert not out.exists()


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
        # The roll, yaw and power columns hold each slot's one-state value.
        sc = load_scenario(scenario).scenario
        v, a = differentiate_trajectory(read_plan(out / "trajectory.csv", sc.delta, sc.altitude))
        a = a[accel_slots(len(v))]
        for k, row in enumerate(data):
            assert row[header.index("roll")] == roll_from_motion(v[k], a[k], sc.aircraft.g)
            assert row[header.index("yaw")] == yaw_from_velocity(v[k])
            assert row[header.index("power")] == flight_power(v[k], a[k], sc.aircraft)
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
        # A trace row is its record's fields in order.
        assert [name.replace("lambda", "lam") for name in header] == [f.name for f in fields(IterationRecord)]

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

    @pytest.mark.parametrize(
        "text, seed_flags",
        [(TINY_MOVING, []), (TINY_HOVER, []), (TINY_HOVER, ["--seed", "5"])],
        ids=["moving", "hover", "hover_seed_5"],
    )
    def test_validate_roundtrip_of_a_monte_carlo_run(self, text, seed_flags, tmp_path, capsys):
        # validate recomputes the efficiency in the mode the run recorded; the
        # Monte Carlo draws from the seed in the run's scenario.echo, as
        # optimize's did, not from the seed validate is given.
        scenario = write_scenario(tmp_path, text)
        out = tmp_path / "run"
        assert main(["optimize", "--scenario", scenario, "--out", str(out), "--mode", "monte_carlo", *seed_flags]) == 0
        assert "efficiency_mode: monte_carlo" in (out / "report").read_text()
        capsys.readouterr()
        assert main(["validate", "--scenario", scenario, "--out", str(out)]) == 0
        row = re.search(r"^\[(\w+)\] efficiency_roundtrip: reference=(\S+) estimate=(\S+)$", capsys.readouterr().out, re.M)
        assert row.groups() == ("ok", row.group(2), row.group(2))

    def test_validate_draws_the_samples_it_is_given(self, tmp_path, capsys, monkeypatch):
        # --samples means the same to validate as to pointing: no cap.
        drawn = []

        def record(settings, n):
            drawn.append(n)
            raise FsoTrajError("stop after the draw count")

        monkeypatch.setattr("fsotraj.cli._sampled_law", record)
        assert main(["validate", "--out", str(tmp_path), "--samples", "1500000"]) == 2
        assert drawn == [1_500_000]


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

    @pytest.mark.parametrize(
        "name, damage, message",
        [
            ("trajectory.csv", lambda text: text.split("\n", 1)[0] + "\n", "expected one row of 12 numbers per slot"),
            (  # the first data row loses its last cell
                "trajectory.csv",
                lambda text: re.sub(r"^([^\n]*\n[^\n]*),[^,\n]*", r"\1", text),
                "expected one row of 12 numbers per slot",
            ),
            ("trajectory.csv", lambda text: "".join(text.splitlines(keepends=True)[:2]), "a plan needs at least 2 slots"),
            ("report", None, "cannot read the run's report: No such file or directory"),
            (
                "report",
                lambda text: re.sub(r"^efficiency: .*\n", "", text, flags=re.M),
                "no 'efficiency: <number>' line",
            ),
            (
                "report",
                lambda text: re.sub(r"^efficiency: .*$", "efficiency: n/a", text, flags=re.M),
                "no 'efficiency: <number>' line",
            ),
            (
                "report",
                lambda text: text.replace("efficiency_mode: closed_form", "efficiency_mode: exact"),
                "no 'efficiency_mode: closed_form or monte_carlo' line",
            ),
            ("scenario.echo", None, "cannot read the run's scenario echo: No such file or directory"),
            (
                "scenario.echo",
                lambda text: text.replace("seed = 0", "seed = zero"),
                "optimizer.seed: bad number 'zero'",
            ),
            ("scenario.echo", lambda text: "", "optimizer.seed: not given"),
            ("scenario.echo", lambda text: "[optimizer]", "optimizer.seed: not given"),
        ],
        ids=[
            "header_only",
            "ragged_row",
            "one_row",
            "no_report",
            "no_efficiency_line",
            "efficiency_not_a_number",
            "unknown_efficiency_mode",
            "no_echo",
            "echo_seed_not_an_integer",
            "empty_echo",
            "one_line_echo",
        ],
    )
    def test_validate_on_a_malformed_run_exits_2_before_any_work(
        self, name, damage, message, tmp_path, capsys, monkeypatch
    ):
        scenario, out = write_scenario(tmp_path, TINY_MOVING), tmp_path / "run"
        assert main(["optimize", "--scenario", scenario, "--out", str(out)]) == 0
        validation = (out / "validation.csv").read_bytes()
        if damage is None:
            (out / name).unlink()
        else:
            (out / name).write_text(damage((out / name).read_text(encoding="utf-8")), encoding="utf-8")
        capsys.readouterr()
        monkeypatch.setattr("fsotraj.cli._sampled_law", lambda *a, **k: pytest.fail("Monte Carlo ran"))
        assert main(["validate", "--scenario", scenario, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out / name}: {message}\n"
        assert (out / "validation.csv").read_bytes() == validation

    def test_validate_malformed_trajectory_exits_2(self, tmp_path, capsys):
        out = tmp_path / "run"
        out.mkdir()
        (out / "trajectory.csv").write_text("t,x,y\n0,54,200\n", encoding="utf-8")
        assert main(["validate", "--out", str(out), "--samples", "2000"]) == 2
        err = capsys.readouterr().err
        assert "trajectory.csv" in err and "header" in err
        assert not (out / "validation.csv").exists()

    @pytest.mark.parametrize(
        "mission, message",
        [
            ("launch_cost = -1 J", "mission: launch cost must be nonnegative"),
            ("duration = 0.2 s", "mission: need at least two slots"),
        ],
    )
    def test_mission_error_exits_2_naming_its_section(self, mission, message, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fsotraj.cli.optimize", lambda *a, **k: pytest.fail("optimize ran"))
        scenario = write_scenario(tmp_path, f"[mission]\nkind = moving\n{mission}\n")
        assert main(["optimize", "--scenario", scenario, "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize(
        "change, mismatch",
        [
            ("slot = 1 s", "t = 2.0 at slot 1, but slot 1.0 s and altitude 600.0 m put it at 1.0"),
            ("slot = 2 s\naltitude = 500 m", "z = 600.0 at slot 0, but slot 2.0 s and altitude 500.0 m put it at 500.0"),
        ],
    )
    def test_validate_on_another_scenarios_run_exits_2_before_any_work(
        self, change, mismatch, tmp_path, capsys, monkeypatch
    ):
        out = tmp_path / "run"
        assert main(["optimize", "--scenario", write_scenario(tmp_path, TINY_MOVING), "--out", str(out)]) == 0
        validation = (out / "validation.csv").read_bytes()
        capsys.readouterr()
        other = write_scenario(tmp_path, TINY_MOVING.replace("slot = 2 s", change), name="other.ini")
        monkeypatch.setattr("fsotraj.cli._sampled_law", lambda *a, **k: pytest.fail("Monte Carlo ran"))
        assert main(["validate", "--scenario", other, "--out", str(out)]) == 2
        assert capsys.readouterr().err == f"error: {out / 'trajectory.csv'}: {mismatch}\n"
        assert (out / "validation.csv").read_bytes() == validation

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

    @pytest.mark.parametrize(
        "command, text, code, message",
        [
            ("power", "[link]\naperture = 20 c m\n", 2, "link.aperture: cannot parse quantity '20 c m'"),
            ("power", "[mission]\nkind = orbit\n", 2, "mission.kind: expected moving or hover, got 'orbit'"),
            ("power", "[mission]\nstart = 54 m\n", 2, "mission.start: expected 'x, y <unit>', got '54 m'"),
            ("power", "[link]\nlog_amplitude_std = -0.1\n", 2, "link: sigma_i must be nonnegative"),
            ("power", "[mission]\nkind = hover\ninit = circular\n", 2, "mission.init: unknown key"),
            (
                "power",
                "[mission]\nkind = moving\ncircle_center = 5, 5 m\n",
                2,
                "mission.circle_center: only a loop (start = end) starts on a circle",
            ),
            (
                "optimize",
                "[mission]\nkind = hover\ncircle_center = 0, 0 m\n",
                3,
                "infeasible scenario: circular initialization needs start != center",
            ),
        ],
        ids=[
            "unit_with_a_space",
            "unknown_kind",
            "point_without_y",
            "negative_sigma_i",
            "init_key",
            "centre_of_a_transit",
            "centre_on_start",
        ],
    )
    def test_scenario_check_exits_with_its_message(self, command, text, code, message, tmp_path, capsys):
        scenario = write_scenario(tmp_path, text)
        assert main([command, "--scenario", scenario, "--out", str(tmp_path / "x")]) == code
        assert capsys.readouterr().err == f"error: {message}\n"

    def test_missing_scenario_file_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.ini"
        assert main(["power", "--scenario", str(missing), "--out", str(tmp_path / "x")]) == 2
        assert capsys.readouterr().err == f"error: {missing}: scenario file not found\n"

    def test_samples_in_exponent_form_are_accepted(self, tmp_path, capsys):
        scenario = write_scenario(tmp_path, "[optimizer]\nsamples = 2e4\n")
        assert main(["pointing", "--scenario", scenario, "--out", str(tmp_path / "x")]) == 0
        assert "(n = 20000)" in capsys.readouterr().out

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


    def test_solver_failure_exits_4(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise SolverError("restriction 1: solve ended max_iter")

        monkeypatch.setattr("fsotraj.cli.optimize", fail)
        out = tmp_path / "x"
        assert main(["optimize", "--out", str(out)]) == 4
        assert capsys.readouterr().err == "error: solver failure: restriction 1: solve ended max_iter\n"
        assert not any(out.iterdir())

    def test_out_that_cannot_be_created_exits_2_before_any_work(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr("fsotraj.cli.optimize", lambda *a, **k: pytest.fail("optimize ran"))
        (tmp_path / "file").write_text("not a directory\n", encoding="utf-8")
        out = tmp_path / "file" / "run"
        assert main(["optimize", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot create --out directory {out}: ")

    def test_scenario_path_with_an_equals_sign(self, tmp_path, capsys):
        # A path is read as a path even when a directory name holds '='.
        folder = tmp_path / "a=b"
        folder.mkdir()
        scenario = write_scenario(folder, "[aircraft]\nv_max = 60 m/s\n", name="moving.ini")
        out = tmp_path / "power"
        assert main(["power", "--scenario", scenario, "--out", str(out)]) == 0
        _, data = read_csv(out / "power_sweep.csv")
        assert data[:, 0].max() == 60.0


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


@pytest.fixture(scope="module")
def census():
    """scripts/census.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location("census", SCENARIOS.parent / "scripts" / "census.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestScripts:
    def test_pointing_driver_runs_from_a_checkout(self, tmp_path):
        # The driver puts the checkout's src/ on sys.path itself.
        script = Path(__file__).resolve().parents[1] / "scripts" / "fsotraj_cli.py"
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
        run = subprocess.run(
            [sys.executable, str(script), "pointing", "--out", str(tmp_path / "out")],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
        )
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "out" / "pointing.csv").exists()

    def test_gate_script_grids_and_count_line(self, census):
        assert [case[0] for case in census.plan_cases()] == sorted(p.stem for p in SCENARIOS.glob("*.ini"))
        assert len(list(census.optimize_cases())) == 30
        assert len(list(census.solver_cases())) == 162
        assert census.count_line(["stalled", "optimal", "stalled"]) == "1 optimal, 2 stalled"

    def test_gate_script_keeps_a_failing_case(self, census):
        def fail(settings):
            raise SolverError("solve ended max_iter")

        status, newton, row = census.run_row("moving", "moving.ini", {}, fail)
        assert (status, newton, row) == ("SolverError", 0, "moving: SolverError: solve ended max_iter")

    def test_gate_script_solver_census_row(self, census):
        label, name, overrides, run = next(census.solver_cases())
        assert label == "moving.ini altitude=500 m sigma_pitch=0.5 mrad"
        status, newton, row = census.run_row(label, name, overrides, run)
        assert row == f"{label}: 3 DoF, {status}, {newton} newton"
        assert status.isidentifier() and newton > 0

    def test_gate_script_optimize_row(self, census):
        label, name, overrides, run = next(census.optimize_cases())
        assert label == "moving.ini altitude=500 m sigma_pitch=0.5 mrad rho_roll_pitch=0"
        status, newton, row = census.run_row(label, name, {**overrides, ("optimizer", "max_outer"): "2"}, run)
        fields = re.fullmatch(rf"{re.escape(label)}: (\d+) outer, (\d+) newton, (\w+), efficiency_true (\S+)", row)
        assert fields is not None, row
        outer, steps, stop, efficiency = fields.groups()
        assert 1 <= int(outer) <= 2 and int(steps) == newton > 0 and stop == status
        assert float(efficiency) > 0.0

    @staticmethod
    def usage_options(script, tmp_path) -> set[str]:
        """The options on the usage line of ``script --help``, run from a checkout
        without PYTHONPATH."""
        path = Path(__file__).resolve().parents[1] / "scripts" / script
        env = {name: value for name, value in os.environ.items() if name != "PYTHONPATH"}
        run = subprocess.run(
            [sys.executable, str(path), "--help"], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
        )
        assert run.returncode == 0, run.stderr
        usage = run.stdout.split("\n\n", 1)[0]
        assert usage.startswith(f"usage: {script} ")
        return set(re.findall(r"--[\w-]+", usage))

    def test_profiler_runs_from_a_checkout(self, tmp_path):
        assert self.usage_options("profile_scenario.py", tmp_path) == set()

    @pytest.mark.parametrize(
        "script, options",
        [
            ("bench_pairs.py", {"--first-seed", "--held-out-first-seed", "--out"}),
            ("sweep_warm_start.py", {"--slack-floors", "--lam-floors"}),
        ],
        ids=["bench_pairs", "sweep_warm_start"],
    )
    def test_tool_runs_from_a_checkout(self, script, options, tmp_path):
        assert self.usage_options(script, tmp_path) == options
