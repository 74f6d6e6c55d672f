import math
from pathlib import Path

import numpy as np
import pytest

from fsotraj.channel import log_bound_params
from fsotraj.convex import solve
from fsotraj.convex.program import _as_block
from fsotraj.errors import DegenerateVelocityError
from fsotraj.jitter import JitterCovariance
from fsotraj.mission import (
    Scenario,
    initialize_iterate,
    physical_violations,
    tight_iterate,
)
from fsotraj.optimizer import anchored_feasibility, restriction_tightness
from fsotraj.scenario import load_scenario
from fsotraj.subproblem import Subproblem, log_anchor

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


def random_feasible_iterate(scenario, rng):
    """Smooth random perturbation of the straight line, redrawn until feasible."""
    n = scenario.n_slots
    base = initialize_iterate(scenario).s.copy()
    t = np.linspace(0.0, 1.0, n)
    for _ in range(60):
        wobble = np.zeros((n, 2))
        for mode in (1, 2, 3):
            amp = rng.normal(scale=12.0 / mode, size=2)
            wobble += np.outer(np.sin(math.pi * mode * t), amp)
        pos = base.copy()
        pos[:, :2] += wobble
        pos[0, :2] = base[0, :2]
        pos[-1, :2] = base[-1, :2]
        it = tight_iterate(scenario, pos)
        if max(physical_violations(scenario, it.s, it.v, it.a).values()) <= 0.0:
            return it
    raise AssertionError("could not draw a feasible iterate")


class TestCensus:
    @pytest.mark.parametrize("n", [10, 100, 400])
    def test_family_count_is_13n_minus_3(self, n):
        sc = moving_scenario(n=n, delta=0.2 if n > 20 else 2.0)
        sub = Subproblem(initialize_iterate(sc), sc)
        census = sub.census()
        assert sum(census.values()) == 13 * n - 3
        assert census["endpoints"] == 4
        assert census["kin_velocity"] == n - 1
        assert census["kin_velocity_ext"] == 1
        assert census["kin_accel"] == n - 1
        assert census["jitter_cone"] == n
        assert census["jitter_lin"] == n
        assert census["logdist"] == n
        assert census["elevation"] == n
        assert census["range_lin"] == n
        for tag in ("speed_cap", "speed_floor_lin", "accel_cap", "power_epi",
                    "speed_sq_floor", "drag_cone"):
            assert census[tag] == n - 1

    def test_constraint_kinds_present(self):
        sc = moving_scenario()
        sub = Subproblem(initialize_iterate(sc), sc)
        sub.set_tradeoff(1e-4)
        prog = sub.program
        kinds = {f.kind for f in [*prog.families, *prog.eq_families]}
        assert kinds == {"linear_eq", "linear_ineq", "soc", "log_epigraph", "cubic_epigraph"}


class TestSharedBlocks:
    def test_every_family_array_is_c_contiguous(self):
        # Slot-invariant coefficients reach the builder once and are
        # broadcast to every member; the stored blocks must still be
        # C-ordered copies, as the per-slot arrays are.
        sc = load_scenario(SCENARIOS / "moving.ini").scenario
        prog = Subproblem(initialize_iterate(sc), sc).program
        checked = 0
        for fam in [*prog.families, *prog.eq_families, *prog.objective.norms]:
            for name, value in vars(fam).items():
                if isinstance(value, np.ndarray):
                    assert value.flags.c_contiguous, (fam.tag, name)
                    assert value.flags.writeable, (fam.tag, name)
                    checked += 1
        assert checked > 60

    @pytest.mark.parametrize("shape", [(2, 2), (1, 3), (4, 4), (3, 2)])
    def test_shared_block_equals_its_tile(self, shape):
        rng = np.random.default_rng(7)
        block = rng.normal(size=shape)
        out = _as_block(block, 99, *shape)
        tiled = np.tile(block, (99, 1, 1))
        assert out.flags.c_contiguous
        assert out.strides == tiled.strides
        assert out.tobytes() == tiled.tobytes()
        out[0, 0, 0] = 1.0  # a copy, not a view of the caller's block
        assert block[0, 0] != 1.0


class TestAnchorConsistency:
    def test_anchor_point_is_feasible(self):
        sc = moving_scenario()
        report = anchored_feasibility(initialize_iterate(sc), sc)
        assert report.max_violation <= 1e-8

    def test_previous_iterate_feasible_for_next_program(self, rng):
        # Solve once, then check the (re-tightened) solution satisfies the
        # program assembled around itself: the cross-module tightness property.
        sc = moving_scenario()
        sub = Subproblem(initialize_iterate(sc), sc)
        sub.set_tradeoff(5e-4)
        sol = solve(sub.program, tol=1e-9, max_iter=100, x0=sub.anchor_x())
        assert sol.status == "optimal"
        nxt = sub.solution_iterate(sol.values)
        report = anchored_feasibility(nxt, sc)
        assert report.max_violation <= 1e-8

    def test_tightness_fifty_random_iterates(self, rng):
        sc = moving_scenario(n=14)
        worst = 0.0
        for _ in range(50):
            it = random_feasible_iterate(sc, rng)
            gaps = restriction_tightness(it, sc)
            worst = max(worst, max(gaps.values()))
        assert worst <= 1e-8

    def test_zero_jitter_drops_pointing_penalty(self):
        sc = moving_scenario(jitter=JitterCovariance((0.0, 0.0, 0.0)))
        it = initialize_iterate(sc)
        assert np.all(it.U == 0.0)
        sub = Subproblem(it, sc)
        sub.set_tradeoff(5e-4)
        sol = solve(sub.program, tol=1e-8, max_iter=100, x0=sub.anchor_x())
        assert sol.status == "optimal"
        # With no jitter weight the penalty variable falls to (numerically) zero.
        assert np.max(sol.values["U"]) <= 1e-6

    def test_degenerate_anchor_names_slot(self):
        sc = moving_scenario()
        it = initialize_iterate(sc)
        it.v[3] = 0.0
        with pytest.raises(DegenerateVelocityError, match="slot 3"):
            Subproblem(it, sc)


class TestLogAnchor:
    def test_unit_anchor_values(self):
        grad, delta = log_bound_params(1.0)
        assert grad == pytest.approx(0.5)
        assert delta == pytest.approx(math.log(2.0))

    def test_bound_tight_at_anchor(self, rng):
        for _ in range(50):
            gamma = float(np.exp(rng.uniform(-3, 5)))
            grad, delta = log_bound_params(gamma)
            assert grad * math.log(gamma) + delta == pytest.approx(math.log1p(gamma), rel=1e-12)
            for other in np.exp(rng.uniform(-3, 5, size=5)):
                assert grad * math.log(other) + delta <= math.log1p(other) + 1e-12

    def test_anchor_matches_tight_auxiliaries(self):
        sc = moving_scenario()
        it = initialize_iterate(sc)
        anchors = log_anchor(it, sc)
        from fsotraj.channel import expected_log_gamma
        from fsotraj.jitter import hoyt_params

        for k in (0, 5, 11):
            hp = hoyt_params(sc.jitter, it.u_hat[k])
            z = float(np.linalg.norm(it.s[k]))
            assert math.log(anchors.gamma_l[k]) == pytest.approx(
                expected_log_gamma(sc.link, z, hp), abs=1e-10
            )


class TestSurrogate:
    def test_surrogate_equals_bound_capacity_at_anchor(self):
        # At tight auxiliaries the surrogate total equals the sum of anchored
        # capacity bounds (both in bits).
        sc = moving_scenario()
        it = initialize_iterate(sc)
        sub = Subproblem(it, sc)
        c_tot, p_tot = sub.surrogate_totals(sub.space.unpack(sub.anchor_x()))
        bound_total = float(np.sum(0.5 * np.log2(1.0 + sub.anchor.gamma_l)))
        assert c_tot == pytest.approx(bound_total, abs=1e-8)
        from fsotraj.kinematics import flight_power

        p_true = sum(
            flight_power(it.v[k], it.a[k], sc.aircraft) for k in range(sc.n_slots - 1)
        )
        fixed = sc.n_slots * sc.link.transmit_power + sc.launch_cost / sc.delta
        assert p_tot == pytest.approx(p_true + fixed, rel=1e-12)

    def test_objective_matches_totals(self):
        sc = moving_scenario()
        sub = Subproblem(initialize_iterate(sc), sc)
        x = sub.anchor_x()
        for lam in (0.0, 3e-4, 1e-3):
            sub.set_tradeoff(lam)
            c_tot, p_tot = sub.surrogate_totals(sub.space.unpack(x))
            assert sub.program.objective.value(x) == pytest.approx(
                -c_tot + lam * p_tot, rel=1e-10
            )
