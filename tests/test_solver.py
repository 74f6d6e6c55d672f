import math

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from fsotraj.convex import ConvexProgram, VariableSpace, check_feasible, solve
from fsotraj.convex import solver as solver_mod
from fsotraj.mission import OptimizerConfig, Scenario, initialize_iterate
from fsotraj.subproblem import Subproblem
from reference_subgradient import projected_subgradient_batch, random_box_programs


def build_projection_problem():
    # minimize t  s.t.  |(x - 1, y - 2)| <= t
    vs = VariableSpace()
    vs.add("x", ())
    vs.add("y", ())
    vs.add("t", ())
    prog = ConvexProgram(vs)
    prog.objective.lin[vs.index("t")] = 1.0
    cols = np.array([[vs.index("x"), vs.index("y"), vs.index("t")]])
    a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    b = np.array([[-1.0, -2.0]])
    c = np.array([[0.0, 0.0, 1.0]])
    prog.add_soc("dist", cols, a, b, c, np.zeros(1))
    return vs, prog


def build_equality_qp(scale=1.0):
    # minimize x^2 + y^2  s.t.  x + y = 2
    vs = VariableSpace()
    vs.add("x", (), scale=scale)
    vs.add("y", (), scale=scale)
    prog = ConvexProgram(vs)
    prog.objective.quad_diag[:] = 2.0
    prog.add_linear_eq("sum", np.array([[0, 1]]), np.array([[1.0, 1.0]]), np.array([2.0]))
    return vs, prog


def add_box(prog, lo, hi):
    n = prog.space.dimension
    cols = np.arange(n)[:, None]
    prog.add_linear_ineq("box_hi", cols, np.ones((n, 1)), -np.asarray(hi, dtype=float))
    prog.add_linear_ineq("box_lo", cols, -np.ones((n, 1)), np.asarray(lo, dtype=float))


class TestToyProblems:
    def test_projection_onto_point(self):
        vs, prog = build_projection_problem()
        sol = solve(prog, tol=1e-8)
        assert sol.status == "optimal"
        assert sol.values["t"] == pytest.approx(0.0, abs=1e-6)
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-4)
        assert sol.values["y"] == pytest.approx(2.0, abs=1e-4)

    def test_equality_qp(self):
        vs, prog = build_equality_qp()
        sol = solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-8)
        assert sol.values["y"] == pytest.approx(1.0, abs=1e-8)
        assert sol.objective == pytest.approx(2.0, abs=1e-8)

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_equality_multiplier_is_physical(self, scale):
        # Stationarity 2x + nu = 0 at x = y = 1 gives nu = -2 whatever the
        # variable scale; scale 10 makes the internal row scaling 0.1.
        vs, prog = build_equality_qp(scale)
        sol = solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-8)
        assert sol.nu == pytest.approx([-2.0], abs=1e-7)

    def test_infeasible_program(self):
        vs = VariableSpace()
        vs.add("x", ())
        prog = ConvexProgram(vs)
        prog.objective.lin[:] = 1.0
        prog.add_linear_ineq("le", np.array([[0]]), np.array([[1.0]]), np.array([1.0]))  # x <= -1
        prog.add_linear_ineq("ge", np.array([[0]]), np.array([[-1.0]]), np.array([1.0]))  # x >= 1
        sol = solve(prog, tol=1e-8)
        assert sol.status == "infeasible"
        assert sol.kkt["primal_feas"] > 0.1

    def test_log_epigraph_known_solution(self):
        # minimize V  s.t.  V >= 0.5 log(x^2 + y^2 + H^2), x = 3, y = 4; H = 10
        vs = VariableSpace()
        vs.add("x", ())
        vs.add("y", ())
        vs.add("V", ())
        prog = ConvexProgram(vs)
        prog.objective.lin[vs.index("V")] = 1.0
        prog.add_linear_eq("fix", np.array([[0], [1]]), np.ones((2, 1)), np.array([3.0, 4.0]))
        cols = np.array([[0, 1, 2]])
        a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        prog.add_log_epigraph("log", cols, a, np.zeros((1, 2)), np.array([10.0]), np.array([2]))
        sol = solve(prog, tol=1e-9, x0=np.array([3.0, 4.0, 3.0]))
        assert sol.status == "optimal"
        assert sol.values["V"] == pytest.approx(0.5 * math.log(125.0), abs=1e-7)

    def test_cubic_epigraph_known_solution(self):
        # minimize P  s.t.  P >= 2 |(x, y)|^3 + 3 q, x = 1, y = 2, q >= 5
        vs = VariableSpace()
        vs.add("x", ())
        vs.add("y", ())
        vs.add("q", ())
        vs.add("P", ())
        prog = ConvexProgram(vs)
        prog.objective.lin[vs.index("P")] = 1.0
        prog.add_linear_eq("fix", np.array([[0], [1]]), np.ones((2, 1)), np.array([1.0, 2.0]))
        prog.add_linear_ineq("qmin", np.array([[2]]), np.array([[-1.0]]), np.array([5.0]))
        cols = np.array([[0, 1, 2, 3]])
        a = np.array([[[1.0, 0.0, 0.0, 0.0], [0.0, 1.0, 0.0, 0.0]]])
        lin = np.array([[0.0, 0.0, 3.0, 0.0]])
        prog.add_cubic_epigraph(
            "cube", cols, a, np.zeros((1, 2)), np.array([2.0]), lin, np.zeros(1), np.array([3])
        )
        sol = solve(prog, tol=1e-9, x0=np.array([1.0, 2.0, 6.0, 50.0]))
        assert sol.status == "optimal"
        expected = 2.0 * 5.0**1.5 + 15.0
        assert sol.objective == pytest.approx(expected, rel=1e-7)
        assert sol.values["q"] == pytest.approx(5.0, abs=1e-6)

    def test_squared_soc_member(self):
        # minimize -S  s.t.  S^2 <= 9  ->  S = 3.
        vs = VariableSpace()
        vs.add("S", ())
        prog = ConvexProgram(vs)
        prog.objective.lin[0] = -1.0
        prog.add_soc(
            "sq",
            np.array([[0]]),
            np.array([[[1.0]]]),
            np.zeros((1, 1)),
            np.zeros((1, 1)),
            np.array([9.0]),
            squared=True,
        )
        sol = solve(prog, tol=1e-9, x0=np.array([0.5]))
        assert sol.status == "optimal"
        assert sol.values["S"] == pytest.approx(3.0, abs=1e-7)


class TestSolverContract:
    def test_matches_subgradient_reference(self, rng):
        count, n = 12, 20
        quad, lin, weights, norm_a, norm_b, lo, hi = random_box_programs(rng, count, n, mu=1.0)
        ref_f, _ = projected_subgradient_batch(
            quad, lin, weights, norm_a, norm_b, lo, hi, mu=1.0, iters=200_000
        )
        for b in range(count):
            vs = VariableSpace()
            vs.add("x", n)
            prog = ConvexProgram(vs)
            prog.objective.lin[:] = lin[b]
            prog.set_quadratic(quad[b])
            for j in range(weights.shape[1]):
                prog.add_objective_norm(
                    np.array([weights[b, j]]),
                    np.arange(n)[None, :],
                    norm_a[b, j][None, :, :],
                    norm_b[b, j][None, :],
                )
            add_box(prog, lo[b], hi[b])
            sol = solve(prog, tol=1e-9)
            assert sol.status == "optimal"
            assert sol.kkt["stationarity"] <= 1e-7
            assert sol.kkt["complementarity"] <= 1e-7
            assert sol.kkt["primal_feas"] <= 1e-7
            # The reference only upper-bounds the optimum at finite iterations.
            assert sol.objective <= ref_f[b] + 1e-6
            assert abs(sol.objective - ref_f[b]) <= 1e-4 * (1.0 + abs(sol.objective))

    def test_weak_duality(self, rng):
        quad, lin, weights, norm_a, norm_b, lo, hi = random_box_programs(rng, 5, 8)
        for b in range(5):
            vs = VariableSpace()
            vs.add("x", 8)
            prog = ConvexProgram(vs)
            prog.objective.lin[:] = lin[b]
            prog.set_quadratic(quad[b])
            add_box(prog, lo[b], hi[b])
            sol = solve(prog, tol=1e-9)
            assert sol.status == "optimal"
            assert sol.objective >= sol.dual_bound - 1e-9

    def test_deterministic_bitwise(self):
        vs, prog = build_projection_problem()
        a = solve(prog, tol=1e-8)
        b = solve(prog, tol=1e-8)
        assert np.array_equal(a.x, b.x)
        assert a.objective == b.objective


def moving_subproblem(n_slots=12, delta=2.0):
    sc = Scenario(
        start=np.array([54.0, 200.0, 600.0]),
        end=np.array([450.0, 200.0, 600.0]),
        n_slots=n_slots,
        delta=delta,
        altitude=600.0,
        launch_cost=1e5,
    )
    sub = Subproblem(initialize_iterate(sc), sc, OptimizerConfig())
    c_anchor, p_anchor = sub.surrogate_totals(sub.space.unpack(sub.anchor_x()))
    sub.set_tradeoff(c_anchor / p_anchor)
    return sub


def band_to_dense(work, band):
    """The KKT matrix in its original order, read back from band storage."""
    size = work.kkt_shape[0]
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    inside = (i - j <= work.kl) & (j - i <= work.ku)
    permuted = np.zeros((size, size))
    permuted[inside] = band[work.kl + work.ku + i[inside] - j[inside], j[inside]]
    dense = np.empty_like(permuted)
    dense[np.ix_(work.perm, work.perm)] = permuted
    return dense


class TestKktAssembly:
    def test_fixed_pattern_matches_coo_conversion(self, monkeypatch):
        # Capture the KKT systems of a real trajectory subproblem solve and
        # check each against its COO triplets, the reference assembly, and
        # against a SuperLU solve of the same system.
        sub = moving_subproblem()
        captured = []
        kkt_step = solver_mod._Work.kkt_step

        def spy(work, coo_vals, rhs):
            step = kkt_step(work, coo_vals, rhs)
            captured.append((work, coo_vals.copy(), rhs.copy(), step))
            return step

        monkeypatch.setattr(solver_mod._Work, "kkt_step", spy)
        sol = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
        assert sol.status == "optimal"
        assert len(captured) >= sol.iterations - 1
        for work, coo_vals, rhs, step in captured:
            ref = sp.coo_matrix((coo_vals, (work.kkt_rows, work.kkt_cols)), shape=work.kkt_shape).toarray()
            band = work.kkt_band(work.kkt_entries(coo_vals))
            assert band.flags.f_contiguous
            assert not band[: work.kl].any()  # rows dgbtrf fills in
            assert np.max(np.abs(band_to_dense(work, band) - ref)) <= 1e-14 * np.max(np.abs(ref))

            kkt = sp.csc_matrix(ref)
            ref_step = spla.splu(kkt).solve(rhs)
            residual = np.linalg.norm(kkt @ step - rhs) / np.linalg.norm(rhs)
            ref_residual = np.linalg.norm(kkt @ ref_step - rhs) / np.linalg.norm(rhs)
            assert residual <= 4.0 * ref_residual

    def test_rcm_bandwidth_does_not_grow_with_slots(self):
        # Each banded step costs O(N b^2) only while b stays fixed; a
        # constraint family coupling distant slots would widen the band.
        bandwidths = set()
        for n_slots, delta in ((12, 2.0), (100, 0.2), (400, 0.2)):
            sub = moving_subproblem(n_slots, delta)
            work = solver_mod._Work(sub.program, sub.anchor_x())
            assert work.kkt_shape[0] > 15 * n_slots
            bandwidths.add((work.kl, work.ku))
        assert len(bandwidths) == 1, bandwidths


class TestWarmStart:
    def test_resolve_from_own_multipliers_takes_fewer_steps(self):
        sub = moving_subproblem()
        first = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
        assert first.status == "optimal"
        cold = solve(sub.program, tol=1e-8, x0=first.x)
        warm = solve(sub.program, tol=1e-8, x0=first.x, lam0=first.lam)
        assert cold.status == warm.status == "optimal"
        assert warm.iterations < cold.iterations
        for key in ("stationarity", "primal_feas", "dual_feas", "complementarity"):
            assert warm.kkt[key] <= 1e-7
        assert abs(warm.objective - cold.objective) <= 1e-5 * (1.0 + abs(cold.objective))

    def test_multipliers_are_physical(self):
        # The row scaling is internal: the returned multipliers must be
        # complementary to the unscaled constraint values.
        sub = moving_subproblem()
        tol = 1e-8
        sol = solve(sub.program, tol=tol, x0=sub.anchor_x())
        assert sol.status == "optimal"
        g = np.concatenate([fam.values(sol.x) for fam in sub.program.families])
        assert sol.lam.shape == g.shape
        assert np.all(sol.lam >= 0.0)
        assert np.max(np.abs(sol.lam * g)) <= tol


class TestBandFactorStatus:
    def test_zero_pivot_retries_with_more_regularization(self, monkeypatch):
        vs, prog = build_equality_qp()
        calls = []

        def singular_once(ab, kl, ku, **kw):
            lu, piv, info = lapack.dgbtrf(ab, kl, ku, **kw)
            calls.append(info)
            return lu, piv, (1 if len(calls) == 1 else info)

        monkeypatch.setattr(solver_mod, "dgbtrf", singular_once)
        sol = solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        # The last iteration only tests convergence; the first step was
        # factored twice.
        assert len(calls) == sol.iterations
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-8)

    def test_illegal_argument_raises(self, monkeypatch):
        vs, prog = build_equality_qp()
        calls = []

        def illegal(ab, kl, ku, **kw):
            calls.append(kl)
            lu, piv, _ = lapack.dgbtrf(ab, kl, ku, **kw)
            return lu, piv, -2

        monkeypatch.setattr(solver_mod, "dgbtrf", illegal)
        with pytest.raises(ValueError, match="argument 2"):
            solve(prog, tol=1e-9)
        assert len(calls) == 1


class TestCheckFeasible:
    def test_feasible_point(self):
        vs, prog = build_equality_qp()
        report = check_feasible(prog, np.array([1.0, 1.0]), tol=1e-9)
        assert report.feasible
        assert report.max_violation <= 1e-12

    def test_constructed_soc_violation(self):
        vs, prog = build_projection_problem()
        # At (x, y, t) = (1, 2+0.1, 0): |u| - t = 0.1.
        report = check_feasible(prog, np.array([1.0, 2.1, 0.0]), tol=1e-9)
        assert not report.feasible
        assert report.per_tag["dist"][0] == pytest.approx(0.1, abs=1e-12)
        assert report.worst_tags(1)[0][0] == "dist"

    def test_dimension_mismatch(self):
        vs, prog = build_equality_qp()
        with pytest.raises(ValueError):
            check_feasible(prog, np.zeros(3))


class TestConvexityOfEpigraphFamilies:
    def test_log_epigraph_midpoints(self, rng):
        # Feasible pairs (inside the |u| <= off region) stay feasible at midpoints.
        vs = VariableSpace()
        vs.add("x", 2)
        vs.add("V", ())
        prog = ConvexProgram(vs)
        cols = np.array([[0, 1, 2]])
        a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        prog.add_log_epigraph("log", cols, a, np.zeros((1, 2)), np.array([5.0]), np.array([2]))
        fam = prog.families[0]
        for _ in range(1000):
            p1 = rng.uniform(-3.5, 3.5, size=2)
            p2 = rng.uniform(-3.5, 3.5, size=2)
            v1 = 0.5 * math.log(p1 @ p1 + 25.0) + rng.uniform(0.0, 1.0)
            v2 = 0.5 * math.log(p2 @ p2 + 25.0) + rng.uniform(0.0, 1.0)
            lam = rng.uniform()
            mid = lam * np.array([*p1, v1]) + (1 - lam) * np.array([*p2, v2])
            assert fam.values(mid)[0] <= 1e-12

    def test_cubic_epigraph_midpoints(self, rng):
        vs = VariableSpace()
        vs.add("x", 2)
        vs.add("P", ())
        prog = ConvexProgram(vs)
        cols = np.array([[0, 1, 2]])
        a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
        prog.add_cubic_epigraph(
            "cube", cols, a, np.zeros((1, 2)), np.array([1.5]), np.zeros((1, 3)), np.zeros(1), np.array([2])
        )
        fam = prog.families[0]
        for _ in range(1000):
            p1 = rng.uniform(-3.0, 3.0, size=2)
            p2 = rng.uniform(-3.0, 3.0, size=2)
            t1 = 1.5 * np.linalg.norm(p1) ** 3 + rng.uniform(0.0, 2.0)
            t2 = 1.5 * np.linalg.norm(p2) ** 3 + rng.uniform(0.0, 2.0)
            lam = rng.uniform()
            mid = lam * np.array([*p1, t1]) + (1 - lam) * np.array([*p2, t2])
            assert fam.values(mid)[0] <= 1e-9


def test_canonical_text_stable():
    vs, prog = build_projection_problem()
    text1 = prog.canonical_text()
    text2 = prog.canonical_text()
    assert text1 == text2
    assert "dist[0] soc" in text1
    assert text1.count("\n") >= 4


def test_family_census():
    vs, prog = build_projection_problem()
    assert prog.family_census() == {"dist": 1}
