"""Batched slot computations against their per-slot references, the errors
that name the offending slot, and guards on how often the batched code does
its set-up work."""
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import fsotraj.mission as mission
from fsotraj import channel
from fsotraj.channel import LinkParams, log_bound_params, quadrature_ergodic_capacity
from fsotraj.errors import DegenerateGeometryError, DegenerateVelocityError
from fsotraj.jitter import HoytParams, JitterCovariance, hoyt_eigenvalues, pointing_weight_matrix
from fsotraj.kinematics import AircraftParams, TrajectoryPlan, differentiate_trajectory, flight_power
from fsotraj.linearize import delta_u_coefficients
from fsotraj.mission import initialize_iterate, pointing_geometry, tight_iterate
from fsotraj.optimizer import energy_efficiency
from fsotraj.scenario import load_scenario
from fsotraj.subproblem import Subproblem
from reference_slots import (
    flight_power_slot,
    hoyt_eigenvalues_slot,
    jitter_block_slots,
    log_bound_params_slot,
    pointing_geometry_slots,
    quadrature_unfolded,
)

H = 600.0


def wobbly_trajectory(rng, n=400, delta=0.5):
    """A random smooth closed loop at altitude H with its derivatives."""
    t = np.linspace(0.0, 2.0 * math.pi, n)
    radius = rng.uniform(40.0, 300.0)
    s = np.column_stack(
        [
            radius * np.cos(t) + rng.uniform(-100.0, 100.0) + 3.0 * np.sin(5.0 * t),
            radius * np.sin(t) + rng.uniform(-100.0, 100.0),
            np.full(n, H),
        ]
    )
    v, a = differentiate_trajectory(TrajectoryPlan(positions=s, delta=delta, altitude=H))
    return s, v, a


def bundled_scenario(name="hover"):
    """A bundled mission; hover is the N=400 hovering one."""
    return load_scenario(str(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.ini")).scenario


def hover_scenario():
    return bundled_scenario("hover")


def initial_geometry(sc):
    """The initial plan with its per-slot distances and pointing vectors, as energy_efficiency forms them."""
    plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
    v, a = differentiate_trajectory(plan)
    u_hat, _ = pointing_geometry(plan.positions, v, a, sc.aircraft.g)
    return plan, np.linalg.norm(plan.positions, axis=1), u_hat


def mc_slot_loop(sc, z, u_hat, samples, rng):
    """The per-slot oracle: one mc_ergodic_capacity call per slot on one stream."""
    return np.array(
        [channel.mc_ergodic_capacity(sc.link, z[k], sc.jitter, u_hat[k], n=samples, seed=rng).value for k in range(len(z))]
    )


def random_directions(rng, n):
    u = rng.normal(size=(n, 3)) * 800.0
    return u[np.linalg.norm(u, axis=1) > 80.0]


def max_rel(got, want):
    return float(np.max(np.abs(got - want)) / np.max(np.abs(want)))


class TestAgainstPerSlotReference:
    def test_pointing_geometry(self, rng):
        for _ in range(5):
            s, v, a = wobbly_trajectory(rng)
            u_hat, u_jac = pointing_geometry(s, v, a, 9.8)
            ref_u, ref_jac = pointing_geometry_slots(s, v, a, 9.8)
            assert max_rel(u_hat, ref_u) <= 1e-14
            assert max_rel(u_jac, ref_jac) <= 1e-14

    def test_single_state_keeps_its_shape(self, rng):
        s, v, a = wobbly_trajectory(rng, n=3)
        anchor = delta_u_coefficients(s[0], v[0], a[0], 9.8)
        assert anchor.u_hat.shape == (3,) and anchor.jac.shape == (3, 6)

    @pytest.mark.parametrize("kind", ["correlated", "isotropic"])
    def test_hoyt_eigenvalues(self, rng, kind):
        for _ in range(300):
            if kind == "correlated":
                cov = JitterCovariance(tuple(rng.uniform(0.1e-3, 2e-3, 3)), tuple(rng.uniform(-0.4, 0.4, 3)))
            else:
                cov = JitterCovariance((1e-3, 1e-3, 1e-3))
            u = random_directions(rng, 4)
            lam = hoyt_eigenvalues(cov, u)
            for k in range(u.shape[0]):
                ref = np.array(hoyt_eigenvalues_slot(cov, u[k]))
                assert np.max(np.abs(lam[k] - ref)) <= 1e-13 * ref[0]

    def test_hoyt_eigenvalues_single_axis(self, rng):
        # Rank-1 Sigma = sigma^2 e_i e_i^T: lam1 = sigma^2 (|u|^2 - u_i^2) / |u|^2
        # exactly, lam2 = 0. The 3x3 reference forms A_ii = 1 - u_i^2/|u|^2,
        # whose cancellation costs it about 1e-16 / A_ii relative when u is
        # close to the jitter axis, so it is held to 1e-13 of sigma^2 and the
        # exact form to 1e-14 of lam1.
        for _ in range(300):
            axis = int(rng.integers(3))
            sig = [0.0, 0.0, 0.0]
            sig[axis] = rng.uniform(0.1e-3, 2e-3)
            cov = JitterCovariance(tuple(sig))
            u = random_directions(rng, 4)
            lam = hoyt_eigenvalues(cov, u)
            others = np.delete(u, axis, axis=1)
            exact = sig[axis] ** 2 * np.sum(others**2, axis=1) / np.sum(u**2, axis=1)
            assert np.all(np.abs(lam[:, 0] - exact) <= 1e-14 * exact)
            assert np.all(lam[:, 1] <= 1e-14 * exact)
            for k in range(u.shape[0]):
                ref = np.array(hoyt_eigenvalues_slot(cov, u[k]))
                assert np.max(np.abs(lam[k] - ref)) <= 1e-13 * sig[axis] ** 2

    def test_folded_quadrature(self, rng):
        link = LinkParams()
        for _ in range(40):
            z = rng.uniform(600.0, 900.0)
            lam = np.sort(rng.uniform(0.0, 3e-6, 2))[::-1]
            hoyt = HoytParams(lam1=lam[0], lam2=lam[1])
            got = quadrature_ergodic_capacity(link, z, hoyt)
            assert got == pytest.approx(quadrature_unfolded(link, z, hoyt), rel=1e-14, abs=0.0)
        # An odd jitter rule has a zero node, which folds onto itself.
        hoyt = HoytParams(lam1=2e-6, lam2=0.5e-6)
        got = quadrature_ergodic_capacity(link, 700.0, hoyt, nodes_scint=9, nodes_jitter=7)
        want = quadrature_unfolded(link, 700.0, hoyt, nodes_scint=9, nodes_jitter=7)
        assert got == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_flight_power(self, rng):
        craft = AircraftParams()
        s, v, a = wobbly_trajectory(rng)
        got = flight_power(v[:-1], a, craft)
        want = np.array([flight_power_slot(v[k], a[k], craft) for k in range(a.shape[0])])
        assert max_rel(got, want) <= 1e-14
        assert isinstance(flight_power(v[0], a[0], craft), float)

    def test_log_bound_params(self, rng):
        gamma = np.exp(rng.uniform(-20.0, 40.0, 500))
        grad, delta = log_bound_params(gamma)
        want = np.array([log_bound_params_slot(float(g)) for g in gamma])
        np.testing.assert_allclose(grad, want[:, 0], rtol=1e-15, atol=0.0)
        # delta = log1p(g) - grad log(g) cancels for large g: compare to the terms' size.
        terms = np.log1p(gamma) + want[:, 0] * np.abs(np.log(gamma))
        assert np.all(np.abs(delta - want[:, 1]) <= 1e-15 * terms)
        assert isinstance(log_bound_params(2.0)[0], float)

    def test_subproblem_jitter_block(self, rng):
        sc = hover_scenario()
        it = initialize_iterate(sc)
        s = it.s.copy()
        s[1:-1, :2] += rng.normal(scale=2.0, size=(sc.n_slots - 2, 2))
        it = tight_iterate(sc, s)
        sub = Subproblem(it, sc)
        fams = {fam.tag: fam for fam in sub.program.families}
        n = sc.n_slots
        x6 = np.column_stack([it.s[:, :2], it.v[:, :2], it.a[np.minimum(np.arange(n), n - 2), :2]])
        a_norm, b_norm, tau, offset = jitter_block_slots(it, pointing_weight_matrix(sc.jitter), x6)
        cone, lin = fams["jitter_cone"], fams["jitter_lin"]
        # Sums of three to six terms with cancellation, taken in another order.
        assert max_rel(cone.a_loc[:, :, 2:], a_norm) <= 1e-14
        assert max_rel(cone.b_loc, b_norm) <= 1e-13
        assert max_rel(lin.coef[:, 2:], tau) <= 1e-13
        assert max_rel(lin.offset, offset) <= 1e-13


class TestMonteCarloPerPlan:
    SAMPLES = 1500

    @pytest.mark.parametrize("name", ["moving", "hover_pitch_jitter"])
    def test_int_seed_matches_slot_loop(self, name):
        sc = bundled_scenario(name)
        plan, z, u_hat = initial_geometry(sc)
        report = energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=11)
        want = mc_slot_loop(sc, z, u_hat, self.SAMPLES, np.random.default_rng(11))
        assert np.array_equal(report.capacity_per_slot, want)

    def test_generator_matches_slot_loop_and_ends_in_the_same_state(self):
        sc = bundled_scenario("moving")
        plan, z, u_hat = initial_geometry(sc)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        report = energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=got_rng)
        want = mc_slot_loop(sc, z, u_hat, self.SAMPLES, want_rng)
        assert np.array_equal(report.capacity_per_slot, want)
        assert got_rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("samples", [64, 1500])
    def test_fast_thread_switching_keeps_slots_apart(self, samples):
        # A short switch interval interleaves the draws with the reduction; a
        # buffer redrawn before its slot is reduced would change a value.
        sc = bundled_scenario("hover_pitch_jitter")
        _, z, u_hat = initial_geometry(sc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = channel.mc_capacities(sc.link, z, sc.jitter, u_hat, samples, np.random.default_rng(2))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, mc_slot_loop(sc, z, u_hat, samples, np.random.default_rng(2)))

    @pytest.mark.parametrize("slot", [0, 7])
    def test_zero_pointing_vector_raises_before_any_draw(self, slot):
        sc = bundled_scenario("moving")
        _, z, u_hat = initial_geometry(sc)
        u_hat[slot] = 0.0
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        threads = threading.active_count()
        with pytest.raises(DegenerateGeometryError, match=f"at slot {slot}$"):
            channel.mc_capacities(sc.link, z, sc.jitter, u_hat, self.SAMPLES, rng)
        assert rng.bit_generator.state == state
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_return(self):
        sc = bundled_scenario("moving")
        plan, _, _ = initial_geometry(sc)
        threads = threading.active_count()
        energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=1)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_raise_in_the_reduction(self, monkeypatch):
        sc = bundled_scenario("moving")
        plan, _, _ = initial_geometry(sc)
        real, seen = channel._gamma_from_draws, []

        def fail_at_slot_2(*args):
            seen.append(1)
            if len(seen) == 3:
                raise RuntimeError("reduction failed")
            return real(*args)

        monkeypatch.setattr(channel, "_gamma_from_draws", fail_at_slot_2)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="reduction failed"):
            energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=1)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_raise_in_the_draws(self):
        sc = bundled_scenario("moving")
        _, z, u_hat = initial_geometry(sc)

        class FailingStream:
            def __init__(self):
                self.rng, self.calls = np.random.default_rng(0), 0

            def standard_normal(self, out):
                self.calls += 1
                if self.calls == 5:
                    raise RuntimeError("stream failed")
                return self.rng.standard_normal(out=out)

        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="stream failed"):
            channel.mc_capacities(sc.link, z, sc.jitter, u_hat, self.SAMPLES, FailingStream())
        assert threading.active_count() == threads


class TestErrorsNameTheSlot:
    def test_delta_u_zero_speed(self, rng):
        s, v, a = wobbly_trajectory(rng, n=10)
        v[7, :2] = 0.0
        with pytest.raises(DegenerateVelocityError, match="at slot 7"):
            delta_u_coefficients(s, v, np.zeros_like(s), 9.8)

    def test_flight_power_zero_speed(self, rng):
        s, v, a = wobbly_trajectory(rng, n=10)
        v[4] = 0.0
        with pytest.raises(DegenerateVelocityError, match="at slot 4"):
            flight_power(v[:-1], a, AircraftParams())

    def test_hoyt_eigenvalues_zero_direction(self, rng):
        u = random_directions(rng, 8)
        u[3] = 0.0
        with pytest.raises(DegenerateGeometryError, match="at slot 3"):
            hoyt_eigenvalues(JitterCovariance((1e-3, 1e-3, 1e-3)), u)

    def test_log_bound_params_nonpositive_anchor(self):
        with pytest.raises(ValueError, match="at slot 2"):
            log_bound_params(np.array([1.0, 3.0, 0.0, -1.0]))


class TestStructureGuards:
    def test_hermite_rules_built_once_per_node_count(self, monkeypatch):
        sc = hover_scenario()
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        built = []
        real = np.polynomial.hermite_e.hermegauss

        def spy(deg):
            built.append(deg)
            return real(deg)

        channel._hermite_rule.cache_clear()
        channel._folded_hermite_rule.cache_clear()
        monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", spy)
        first = energy_efficiency(plan, sc)
        assert sorted(built) == sorted(set(built)) and built
        count = len(built)
        second = energy_efficiency(plan, sc)
        assert len(built) == count
        assert second.efficiency == first.efficiency

    def test_cached_rules_are_read_only(self):
        for rule in (channel._hermite_rule(48), channel._folded_hermite_rule(32)):
            for arr in rule:
                with pytest.raises(ValueError):
                    arr[0] = 0.0

    def test_pointing_geometry_makes_one_call(self, rng, monkeypatch):
        calls = []
        real = mission.delta_u_coefficients

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(mission, "delta_u_coefficients", spy)
        s, v, a = wobbly_trajectory(rng)
        pointing_geometry(s, v, a, 9.8)
        assert len(calls) == 1
