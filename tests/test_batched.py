"""Batched slot computations against their per-slot references, the
per-plan Monte Carlo's accuracy on the bundled plans, the errors that name
the offending slot, and guards on how often the batched code does its set-up
work."""
import inspect
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import fsotraj.mission as mission
import fsotraj.optimizer as optimizer
from fsotraj import channel
from fsotraj.channel import LinkParams, log_bound_params, quadrature_ergodic_capacity
from fsotraj.errors import DegenerateGeometryError, DegenerateVelocityError
from fsotraj.jitter import HoytParams, JitterCovariance, hoyt_eigenvalues, pointing_weight_matrix
from fsotraj.kinematics import AircraftParams, TrajectoryPlan, differentiate_trajectory, flight_power
from fsotraj.linearize import delta_u_coefficients
from fsotraj.mission import initialize_iterate, pointing_geometry, tight_iterate
from fsotraj.optimizer import energy_efficiency, optimize
from fsotraj.scenario import load_scenario
from fsotraj.subproblem import Subproblem
from reference_slots import (
    expected_log_gamma_slot,
    flight_power_slot,
    hoyt_eigenvalues_slot,
    jitter_cone_slots,
    jitter_lin_slots,
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


def plan_geometry(sc, plan):
    """A plan's per-slot distances and pointing vectors, as energy_efficiency forms them."""
    v, a = differentiate_trajectory(plan)
    u_hat, _ = pointing_geometry(plan.positions, v, a, sc.aircraft.g)
    return np.linalg.norm(plan.positions, axis=1), u_hat


def initial_geometry(sc):
    """The initial plan with its per-slot distances and pointing vectors."""
    plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
    return (plan, *plan_geometry(sc, plan))


def initial_slots(sc):
    """The initial plan with its per-slot distances and Hoyt eigenvalues, the capacity kernels' input."""
    plan, z, u_hat = initial_geometry(sc)
    return plan, z, hoyt_eigenvalues(sc.jitter, u_hat)


@pytest.fixture(scope="module")
def bundled_plans():
    """The initial and final plans of the bundled moving and hover_pitch_jitter missions, by (name, which)."""
    plans = {}
    for name in ("moving", "hover_pitch_jitter"):
        settings = load_scenario(str(Path(__file__).resolve().parents[1] / "scenarios" / f"{name}.ini"))
        sc = settings.scenario
        plans[name, "initial"] = sc, initialize_iterate(sc).plan(sc.delta, sc.altitude)
        plans[name, "final"] = sc, optimize(sc, settings.optimizer).plan
    return plans


PLANS = [(name, which) for name in ("moving", "hover_pitch_jitter") for which in ("initial", "final")]


def mc_slot_loop(sc, z, lam, samples, rng):
    """The per-slot oracle: one mc_ergodic_capacity call per slot, slot k on the k-th child of ``rng``."""
    children = rng.spawn(len(z))
    return np.array(
        [
            channel.mc_ergodic_capacity(sc.link, z[k], HoytParams(*lam[k]), n=samples, seed=children[k]).value
            for k in range(len(z))
        ]
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

    def test_hoyt_eigenvalues_rows_do_not_depend_on_the_batch(self, rng):
        # The Monte Carlo builds each slot's factor from its row of the whole
        # plan's eigenvalues, and must equal the oracle run on that slot alone.
        for _ in range(10):
            cov = JitterCovariance(tuple(rng.uniform(0.1e-3, 2e-3, 3)), tuple(rng.uniform(-0.4, 0.4, 3)))
            u = random_directions(rng, 400) * rng.uniform(100.0, 2000.0)
            full = hoyt_eigenvalues(cov, u)
            for k in range(len(u)):
                assert np.array_equal(hoyt_eigenvalues(cov, u[k : k + 1])[0], full[k])
            for count in (1, 2, 7, 40, 399):
                assert np.array_equal(hoyt_eigenvalues(cov, u[:count]), full[:count])

    def test_folded_quadrature(self, rng):
        default, faint, blazing = (LinkParams(transmit_power=p) for p in (10e-3, 1e-12, 1e149))
        cases = [(default, rng.uniform(100.0, 2000.0), *np.sort(rng.uniform(0.0, 1e-5, 2))[::-1]) for _ in range(40)]
        cases += [(default, rng.uniform(100.0, 2000.0), rng.uniform(0.0, 1e-5), 0.0) for _ in range(5)]
        cases += [(link, z, 1e-5, 0.0) for link in (default, faint) for z in (100.0, 2000.0)]
        cases += [(link, z, 0.0, 0.0) for link in (default, faint) for z in (100.0, 2000.0)]
        # At 100 m the blazing link's largest node log-SNR exceeds 709, where
        # exp overflows, so those rows take logaddexp. (P_T = 1e160 would
        # already overflow P_T^2 in the constant.)
        link, z = blazing, 100.0
        log_snr = (
            math.log(math.e * link.responsivity**2 * link.transmit_power**2 / (2.0 * math.pi * link.noise_std**2))
            - 2.0 * link.sigma_b * z
            + 2.0 * math.log(link.aperture**2 / (2.0 * z * link.sigma_div))
            - 4.0 * link.sigma_i**2
            + 4.0 * link.sigma_i * channel._grid()[0].max()
        )
        assert log_snr > 709.0
        cases += [(blazing, 100.0, 3e-6, 1e-6), (blazing, 100.0, 1e-5, 0.0), (blazing, 100.0, 0.0, 0.0)]
        for link, z, lam1, lam2 in cases:
            hoyt = HoytParams(lam1=lam1, lam2=lam2)
            got = quadrature_ergodic_capacity(link, z, hoyt)
            assert 0.0 < got < math.inf
            assert got == pytest.approx(quadrature_unfolded(link, z, hoyt), rel=1e-14, abs=0.0)

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
        d_mat = pointing_weight_matrix(sc.jitter)
        a_norm, b_norm = jitter_cone_slots(it, np.sqrt(d_mat), x6)
        tau, offset = jitter_lin_slots(it, d_mat, x6)
        cone, lin = fams["jitter_cone"], fams["jitter_lin"]
        # Sums of three to six terms with cancellation, taken in another order.
        assert max_rel(cone.a_loc[:, :, 2:], a_norm) <= 1e-14
        assert max_rel(cone.b_loc, b_norm) <= 1e-13
        assert max_rel(lin.coef[:, 2:], tau) <= 1e-13
        assert max_rel(lin.offset, offset) <= 1e-13

    @pytest.mark.parametrize(
        "jitter",
        [
            JitterCovariance.from_mrad((0.583, 0.583, 0.583), (0.6, -0.3, 0.2)),
            JitterCovariance.from_mrad((0.0, 1.0, 0.0)),
        ],
        ids=["correlated", "pitch_only"],
    )
    def test_subproblem_jitter_block_any_covariance(self, jitter, rng):
        # The cone's root of D is not unique, so check only what does not depend
        # on it: a^T a = J^T D J and |A x + b| = sqrt(u^T D u) at the anchor.
        sc = hover_scenario().with_jitter(jitter)
        it = initialize_iterate(sc)
        s = it.s.copy()
        s[1:-1, :2] += rng.normal(scale=2.0, size=(sc.n_slots - 2, 2))
        it = tight_iterate(sc, s)
        fams = {fam.tag: fam for fam in Subproblem(it, sc).program.families}
        n = sc.n_slots
        x6 = np.column_stack([it.s[:, :2], it.v[:, :2], it.a[np.minimum(np.arange(n), n - 2), :2]])
        d_mat = pointing_weight_matrix(jitter)
        tau, offset = jitter_lin_slots(it, d_mat, x6)
        cone, lin = fams["jitter_cone"], fams["jitter_lin"]
        a_norm = cone.a_loc[:, :, 2:]
        jdj = np.einsum("kil,ij,kjm->klm", it.u_jac, d_mat, it.u_jac)
        assert max_rel(np.einsum("kil,kim->klm", a_norm, a_norm), jdj) <= 1e-13
        w = np.sqrt(np.einsum("ki,ij,kj->k", it.u_hat, d_mat, it.u_hat))
        at_anchor = np.linalg.norm(np.einsum("kil,kl->ki", a_norm, x6) + cone.b_loc, axis=1)
        assert max_rel(at_anchor, w) <= 1e-12
        assert max_rel(lin.coef[:, 2:], tau) <= 1e-13
        assert max_rel(lin.offset, offset) <= 1e-13


class TestQuadratureBatch:
    """`quadrature_capacities` on whole plans: each slot against the full-grid
    reference and, bit for bit, against the one-slot call, wherever the chunks
    of _QUADRATURE_CHUNK slots fall."""

    CHUNK = channel._QUADRATURE_CHUNK

    @staticmethod
    def slots(sc, plan):
        z, u_hat = plan_geometry(sc, plan)
        return z, hoyt_eigenvalues(sc.jitter, u_hat)

    @staticmethod
    def one_slot_calls(link, z, lam):
        return np.array([quadrature_ergodic_capacity(link, zk, HoytParams(*lk)) for zk, lk in zip(z, lam)])

    @pytest.mark.parametrize("name,which", PLANS)
    def test_each_slot_matches_the_full_grid(self, bundled_plans, name, which):
        sc, plan = bundled_plans[name, which]
        z, lam = self.slots(sc, plan)
        got = channel.quadrature_capacities(sc.link, z, lam)
        want = np.array([quadrature_unfolded(sc.link, zk, HoytParams(*lk)) for zk, lk in zip(z, lam)])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("name,which", PLANS)
    def test_full_plan_is_the_one_slot_call(self, bundled_plans, name, which):
        sc, plan = bundled_plans[name, which]
        z, lam = self.slots(sc, plan)
        assert np.array_equal(channel.quadrature_capacities(sc.link, z, lam), self.one_slot_calls(sc.link, z, lam))

    @pytest.mark.parametrize("cut", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_plan_cut_at_a_chunk_boundary_is_the_one_slot_call(self, bundled_plans, cut):
        sc, plan = bundled_plans["hover_pitch_jitter", "initial"]
        z, lam = self.slots(sc, plan)
        z, lam = z[:cut], lam[:cut]
        assert np.array_equal(channel.quadrature_capacities(sc.link, z, lam), self.one_slot_calls(sc.link, z, lam))

    def test_overflow_rows_are_per_slot_within_a_chunk(self):
        # One chunk: a slot at 400 m and seven from 600 to 650 km, under a
        # transmit power that puts the largest node log-SNR of the first at
        # 712. Its top rows exceed _EXP_SAFE and take logaddexp; its other
        # rows and every row of the far slots take exp and log1p, each as it
        # does alone. The far slots' node log-SNR spans about -35 to 45, where
        # the two forms round differently, so a branch taken for the whole
        # chunk changes some of their values.
        sc = bundled_scenario("hover_pitch_jitter")
        _, _, u_hat = initial_geometry(sc)
        z = np.r_[400.0, np.linspace(600e3, 650e3, self.CHUNK - 1)]
        lam = hoyt_eigenvalues(sc.jitter, u_hat[: self.CHUNK])
        x_s = channel._grid()[0]

        def node_log_snr(link):
            const = [
                channel._log_snr_base(link)
                - 2.0 * link.sigma_b * zk
                + 2.0 * math.log(link.aperture**2 / (2.0 * zk * link.sigma_div))
                for zk in z
            ]
            return np.add.outer(const, -4.0 * link.sigma_i**2 + 4.0 * link.sigma_i * x_s)

        unit = node_log_snr(LinkParams(transmit_power=1.0))
        link = LinkParams(transmit_power=math.exp((712.0 - unit[0].max()) / 2.0))
        big = node_log_snr(link) > channel._EXP_SAFE
        assert big[0].any() and not big[0].all()
        assert not big[1:].any()
        got = channel.quadrature_capacities(link, z, lam)
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, self.one_slot_calls(link, z, lam))
        want = np.array([quadrature_unfolded(link, zk, HoytParams(*lk)) for zk, lk in zip(z, lam)])
        np.testing.assert_allclose(got, want, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("distances,pairs", [(4, 2), (2, 4)])
    def test_slot_count_mismatch_raises(self, distances, pairs):
        lam = np.full((pairs, 2), 1e-6)
        with pytest.raises(ValueError, match=f"got {distances} distances and {pairs} eigenvalue pairs"):
            channel.quadrature_capacities(LinkParams(), np.full(distances, 700.0), lam)

    @staticmethod
    def traced_peak(sc, z, lam):
        tracemalloc.start()
        try:
            channel.quadrature_capacities(sc.link, z, lam)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_buffer_does_not_grow_with_the_plan(self):
        # The chunk buffer holds 8 slots x 42 rows x 171 pairs, 460 kB. One
        # buffer for the whole plan would be 5.7 MB at N=100 and 23 MB at
        # N=400.
        peaks = {}
        for name in ("moving", "hover_pitch_jitter"):
            sc = bundled_scenario(name)
            _, z, u_hat = initial_geometry(sc)
            lam = hoyt_eigenvalues(sc.jitter, u_hat)
            channel.quadrature_capacities(sc.link, z, lam)
            peaks[len(z)] = self.traced_peak(sc, z, lam)
        assert max(peaks.values()) < 600_000, peaks
        assert peaks[400] <= 1.5 * peaks[100], peaks


class TestMonteCarloPerPlan:
    SAMPLES = 1500

    @pytest.mark.parametrize("name", ["moving", "hover_pitch_jitter"])
    def test_int_seed_matches_slot_loop(self, name):
        sc = bundled_scenario(name)
        plan, z, lam = initial_slots(sc)
        report = energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=11)
        want = mc_slot_loop(sc, z, lam, self.SAMPLES, np.random.default_rng(11))
        assert np.array_equal(report.capacity_per_slot, want)

    def test_generator_matches_slot_loop_and_ends_in_the_same_state(self):
        # Spawning children leaves the parent's bit stream alone and only
        # counts the children on its seed sequence.
        sc = bundled_scenario("moving")
        plan, z, lam = initial_slots(sc)
        got_rng, want_rng = np.random.default_rng(5), np.random.default_rng(5)
        state = got_rng.bit_generator.state
        report = energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=got_rng)
        want = mc_slot_loop(sc, z, lam, self.SAMPLES, want_rng)
        assert np.array_equal(report.capacity_per_slot, want)
        assert got_rng.bit_generator.state == state == want_rng.bit_generator.state
        assert got_rng.bit_generator.seed_seq.n_children_spawned == len(z)

    def test_leading_slots_keep_their_values(self):
        sc = bundled_scenario("moving")
        _, z, lam = initial_slots(sc)
        full = channel.mc_capacities(sc.link, z, lam, self.SAMPLES, np.random.default_rng(8))
        for k in (1, 7, 40):
            head = channel.mc_capacities(sc.link, z[:k], lam[:k], self.SAMPLES, np.random.default_rng(8))
            assert np.array_equal(head, full[:k])

    @pytest.mark.parametrize("samples", [64, 1500])
    def test_fast_thread_switching_keeps_slots_apart(self, samples):
        # A short switch interval interleaves the two threads' slots; a slot
        # that read the other thread's buffers or stream would change a value.
        sc = bundled_scenario("hover_pitch_jitter")
        _, z, lam = initial_slots(sc)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = channel.mc_capacities(sc.link, z, lam, samples, np.random.default_rng(2))
        finally:
            sys.setswitchinterval(interval)
        assert np.array_equal(got, mc_slot_loop(sc, z, lam, samples, np.random.default_rng(2)))

    @pytest.mark.parametrize("distance", [0.0, -1.0])
    @pytest.mark.parametrize("slot", [0, 7])
    def test_nonpositive_distance_raises_before_any_draw(self, slot, distance):
        sc = bundled_scenario("moving")
        _, z, lam = initial_slots(sc)
        z[slot] = distance
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        threads = threading.active_count()
        with pytest.raises(DegenerateGeometryError, match=f"at slot {slot}$"):
            channel.mc_capacities(sc.link, z, lam, self.SAMPLES, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert threading.active_count() == threads

    @pytest.mark.parametrize("distances,pairs", [(4, 2), (2, 4)])
    def test_slot_count_mismatch_raises_before_any_spawn(self, distances, pairs):
        sc = bundled_scenario("moving")
        _, z, lam = initial_slots(sc)
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        threads = threading.active_count()
        with pytest.raises(ValueError, match=f"got {distances} distances and {pairs} eigenvalue pairs"):
            channel.mc_capacities(sc.link, z[:distances], lam[:pairs], self.SAMPLES, rng)
        assert rng.bit_generator.state == state
        assert rng.bit_generator.seed_seq.n_children_spawned == 0
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_return(self):
        sc = bundled_scenario("moving")
        plan, _, _ = initial_geometry(sc)
        threads = threading.active_count()
        energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=1)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_raise_in_the_reduction(self, monkeypatch):
        # The calling thread fails in the reduction of the first chunk it
        # claims. The worker holds its first chunk until then, so the caller
        # is sure to claim one; the worker then stops within a few chunks,
        # while the plan has 10 of them.
        sc = bundled_scenario("moving")
        plan, _, _ = initial_geometry(sc)
        assert plan.n_slots // channel._chunk_slots(self.SAMPLES) == 10
        real, caller_failed, worker_chunks = channel._log_snr, threading.Event(), []

        def fail_in_the_caller(*args):
            if threading.current_thread() is threading.main_thread():
                caller_failed.set()
                raise RuntimeError("reduction failed")
            caller_failed.wait(timeout=30.0)
            worker_chunks.append(1)
            return real(*args)

        monkeypatch.setattr(channel, "_log_snr", fail_in_the_caller)
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="reduction failed"):
            energy_efficiency(plan, sc, mode="monte_carlo", samples_per_slot=self.SAMPLES, seed=1)
        assert caller_failed.is_set()
        assert len(worker_chunks) < 3
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_raise_in_the_draws(self):
        # The worker fails at the draws of the first slot it claims: building
        # that slot's generator raises. The caller holds the first slot of its
        # first chunk until then, so the worker is sure to claim a chunk; the
        # caller then stops within a few chunks, while the plan has 10.
        sc = bundled_scenario("moving")
        _, z, lam = initial_slots(sc)
        worker_failed, caller_slots = threading.Event(), []

        class FailsInTheWorker(np.random.PCG64):
            armed = False

            def __init__(self, seed=None):
                if self.armed and threading.current_thread() is not threading.main_thread():
                    worker_failed.set()
                    raise RuntimeError("stream failed")
                if self.armed:
                    worker_failed.wait(timeout=30.0)
                    caller_slots.append(1)
                super().__init__(seed)

        rng = np.random.Generator(FailsInTheWorker(0))
        FailsInTheWorker.armed = True
        threads = threading.active_count()
        with pytest.raises(RuntimeError, match="stream failed"):
            channel.mc_capacities(sc.link, z, lam, self.SAMPLES, rng)
        assert worker_failed.is_set()
        assert len(caller_slots) <= 2 * channel._chunk_slots(self.SAMPLES)
        assert threading.active_count() == threads


class TestMonteCarloChunks:
    """Slots run in chunks of `_chunk_slots` at the default sample count; every
    slot still equals the oracle on its child stream, bit for bit, wherever the
    chunk boundaries fall, and the buffers do not grow with the plan."""

    DEFAULT_SAMPLES = inspect.signature(energy_efficiency).parameters["samples_per_slot"].default
    CHUNK = channel._chunk_slots(DEFAULT_SAMPLES)

    def test_default_chunk_holds_several_slots(self):
        assert self.CHUNK == 8

    @pytest.mark.parametrize("cut", [1, CHUNK - 1, CHUNK, CHUNK + 1])
    def test_plan_cut_at_a_chunk_boundary_matches_the_oracle(self, cut):
        sc = bundled_scenario("hover_pitch_jitter")
        _, z, lam = initial_slots(sc)
        z, lam = z[:cut], lam[:cut]
        got = channel.mc_capacities(sc.link, z, lam, self.DEFAULT_SAMPLES, np.random.default_rng(6))
        assert np.array_equal(got, mc_slot_loop(sc, z, lam, self.DEFAULT_SAMPLES, np.random.default_rng(6)))

    @pytest.mark.parametrize(
        "name,samples",
        # hover_pitch_jitter's 400 slots fill 50 chunks of 8 exactly, so it
        # runs at 2,100 samples: chunks of 7, the last holding one slot.
        [("moving", DEFAULT_SAMPLES), ("hover_pitch_jitter", 2_100)],
    )
    def test_full_plan_with_a_partial_last_chunk_matches_the_oracle(self, name, samples):
        sc = bundled_scenario(name)
        _, z, lam = initial_slots(sc)
        assert len(z) % channel._chunk_slots(samples) != 0
        got = channel.mc_capacities(sc.link, z, lam, samples, np.random.default_rng(7))
        assert np.array_equal(got, mc_slot_loop(sc, z, lam, samples, np.random.default_rng(7)))

    def test_overflow_branch_is_per_slot_within_a_chunk(self):
        # One chunk of slots from 400 m to 650 km under a transmit power that
        # puts the on-axis log-SNR of the nearest at 712: the near slots'
        # largest t exceeds _EXP_SAFE and takes logaddexp, the far slots'
        # stays below and takes exp and log1p, each as it does alone. The
        # farthest slot's t lies where the two formulas round differently, so
        # a branch taken for the whole chunk changes that slot's residuals;
        # its mean over 2,000 samples absorbs a last-bit change, so the
        # residuals are compared too.
        sc = bundled_scenario("hover_pitch_jitter")
        _, _, lam = initial_slots(sc)
        z = np.geomspace(400.0, 650e3, self.CHUNK)
        lam = lam[: self.CHUNK]
        c0_unit, _, _ = channel._mc_constants(LinkParams(transmit_power=1.0), z, lam)
        sc = replace(sc, link=LinkParams(transmit_power=math.exp((712.0 - c0_unit[0]) / 2.0)))
        n = self.DEFAULT_SAMPLES
        alone = [
            channel._sample_log_snr(sc.link, z[k], HoytParams(*lam[k]), n, child)
            for k, child in enumerate(np.random.default_rng(9).spawn(self.CHUNK))
        ]
        t = np.concatenate([t_k for t_k, _, _ in alone])
        assert t[0].max() > channel._EXP_SAFE > t[-1].max()
        assert np.any(np.logaddexp(0.0, t[-1]) != np.log1p(np.exp(t[-1])))
        t_mean = np.concatenate([t_mean_k for _, t_mean_k, _ in alone])
        chunk = channel._cross_fitted_residuals(t, t_mean, np.empty((self.CHUNK, n, 2)))
        for k, (t_k, t_mean_k, spent_k) in enumerate(alone):
            assert np.array_equal(chunk[k], channel._cross_fitted_residuals(t_k, t_mean_k, spent_k)[0]), f"slot {k}"
        got = channel.mc_capacities(sc.link, z, lam, n, np.random.default_rng(9))
        assert np.all(np.isfinite(got))
        assert np.array_equal(got, mc_slot_loop(sc, z, lam, n, np.random.default_rng(9)))

    @staticmethod
    def traced_peak(sc, z, lam, samples):
        tracemalloc.start()
        try:
            channel.mc_capacities(sc.link, z, lam, samples, np.random.default_rng(1))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_buffers_do_not_grow_with_the_plan(self):
        # Both threads' chunk buffers hold 2 x 8 slots x 3 x 2,000 doubles,
        # 384 kB each. One buffer for the whole plan would be 4.8 MB at N=100
        # and 19.2 MB at N=400.
        peaks = {}
        for name in ("moving", "hover_pitch_jitter"):
            sc = bundled_scenario(name)
            _, z, lam = initial_slots(sc)
            channel.mc_capacities(sc.link, z, lam, self.DEFAULT_SAMPLES, np.random.default_rng(1))
            peaks[len(z)] = self.traced_peak(sc, z, lam, self.DEFAULT_SAMPLES)
        assert max(peaks.values()) < 2_000_000, peaks
        assert peaks[400] <= 1.5 * peaks[100], peaks


class TestMonteCarloAccuracy:
    """The cross-fitted control variate on every slot of the bundled initial plans."""

    DEFAULT_SAMPLES = inspect.signature(energy_efficiency).parameters["samples_per_slot"].default
    PLANS = ["moving", "hover", "hover_pitch_jitter"]

    @pytest.mark.parametrize("name", PLANS)
    def test_control_mean_is_the_expected_log_gamma(self, name):
        sc = bundled_scenario(name)
        _, z, lam = initial_slots(sc)
        _, _, t_mean = channel._mc_constants(sc.link, z, lam)
        want = [expected_log_gamma_slot(sc.link, z[k], HoytParams(*lam[k])) for k in range(len(z))]
        np.testing.assert_allclose(t_mean, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("name", PLANS)
    def test_default_stderr_is_below_the_plain_mean_at_20k(self, name):
        # Each slot on its energy_efficiency child stream: the control-variate
        # standard error at the default sample count against the plain
        # estimator's std(f) / sqrt(n) at 20,000 samples.
        sc = bundled_scenario(name)
        _, z, lam = initial_slots(sc)
        n = self.DEFAULT_SAMPLES
        for k, (plain_child, child) in enumerate(
            zip(np.random.default_rng(sc.seed).spawn(len(z)), np.random.default_rng(sc.seed).spawn(len(z)))
        ):
            hoyt = HoytParams(*lam[k])
            t, _, _ = channel._sample_log_snr(sc.link, z[k], hoyt, 20_000, plain_child)
            plain = np.std(channel._log1p_exp(t, t)) * channel._HALF_LOG2E / math.sqrt(20_000)
            mc = channel.mc_ergodic_capacity(sc.link, z[k], hoyt, n, child)
            assert mc.stderr <= plain, f"slot {k}"

    @pytest.mark.parametrize("samples", [DEFAULT_SAMPLES, 16])
    def test_plan_total_is_unbiased(self, samples):
        # Over 4 seeds the hover_pitch_jitter plan total stays within 4
        # combined standard errors of the closed form. A slope fitted on the
        # samples it corrects biases each slot by O(1/n), which adds up over
        # the 400 slots; 16 samples per slot make that bias many standard
        # errors wide.
        sc = bundled_scenario("hover_pitch_jitter")
        _, z, lam = initial_slots(sc)
        closed = float(np.sum(channel.quadrature_capacities(sc.link, z, lam)))
        total = variance = 0.0
        for seed in range(4):
            for k, child in enumerate(np.random.default_rng(seed).spawn(len(z))):
                mc = channel.mc_ergodic_capacity(sc.link, z[k], HoytParams(*lam[k]), samples, child)
                total += mc.value
                variance += mc.stderr**2
        assert abs(total / 4 - closed) <= 4.0 * math.sqrt(variance) / 4


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

    @pytest.mark.parametrize("distance", [0.0, -1.0])
    def test_quadrature_nonpositive_distance(self, distance):
        sc = bundled_scenario("moving")
        _, z, lam = initial_slots(sc)
        z[5] = distance
        with pytest.raises(DegenerateGeometryError, match="propagation distance must be positive at slot 5$"):
            channel.quadrature_capacities(sc.link, z, lam)

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

        channel._grid.cache_clear()
        monkeypatch.setattr(np.polynomial.hermite_e, "hermegauss", spy)
        first = energy_efficiency(plan, sc)
        assert sorted(built) == [32, 48]
        count = len(built)
        second = energy_efficiency(plan, sc)
        assert len(built) == count
        assert second.efficiency == first.efficiency

    def test_closed_form_makes_one_quadrature_call_per_plan(self, monkeypatch):
        sc = hover_scenario()
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        calls = []
        real = optimizer.quadrature_capacities

        def spy(*args, **kwargs):
            calls.append(args)
            return real(*args, **kwargs)

        def per_slot(*args, **kwargs):
            pytest.fail("the closed form called the one-slot quadrature")

        monkeypatch.setattr(optimizer, "quadrature_capacities", spy)
        monkeypatch.setattr(optimizer, "quadrature_ergodic_capacity", per_slot)
        energy_efficiency(plan, sc)
        assert len(calls) == 1
        assert len(calls[0][1]) == plan.n_slots

    @pytest.mark.parametrize("mode", ["closed_form", "monte_carlo"])
    def test_energy_efficiency_computes_the_law_once(self, monkeypatch, mode):
        # Both modes take the slots' Hoyt eigenvalues from one call in the
        # optimizer; the channel module has no way to compute them itself.
        sc = bundled_scenario("moving")
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        calls = []
        real = optimizer.hoyt_eigenvalues

        def spy(*args):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(optimizer, "hoyt_eigenvalues", spy)
        energy_efficiency(plan, sc, mode=mode, samples_per_slot=16)
        assert len(calls) == 1
        assert len(calls[0][1]) == plan.n_slots
        assert not hasattr(channel, "hoyt_eigenvalues") and not hasattr(channel, "JitterCovariance")

    def test_pruned_rule_is_built_once_and_drops_under_1e_17(self):
        # Dropped: the jitter pairs and the scintillation nodes below zero
        # whose weight is at most _WEIGHT_FLOOR.
        sc = bundled_scenario("moving")
        plan = initialize_iterate(sc).plan(sc.delta, sc.altitude)
        channel._grid.cache_clear()
        energy_efficiency(plan, sc)
        energy_efficiency(plan, sc)
        x_s, w_s, _, _, _, w_pair = channel._grid()
        assert channel._grid.cache_info().misses == 1
        x_full, w_full = np.polynomial.hermite_e.hermegauss(48)
        w_full = w_full / math.sqrt(2.0 * math.pi)
        w_j = 2.0 * (np.polynomial.hermite_e.hermegauss(32)[1][16:] / math.sqrt(2.0 * math.pi))
        pairs = np.multiply.outer(w_j, w_j).ravel()
        kept_s = (w_full > channel._WEIGHT_FLOOR) | (x_full > 0.0)
        kept_pairs = pairs > channel._WEIGHT_FLOOR
        assert (kept_s.sum(), kept_pairs.sum()) == (42, 171)
        assert np.array_equal(x_s, x_full[kept_s]) and np.array_equal(w_s, w_full[kept_s])
        assert np.array_equal(w_pair, pairs[kept_pairs])
        assert w_full[~kept_s].sum() <= 1e-17
        assert pairs[~kept_pairs].sum() <= 1e-17

    def test_cached_rules_are_read_only(self):
        for arr in channel._grid():
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
