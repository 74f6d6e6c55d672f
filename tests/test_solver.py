import math
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg import lapack

from fsotraj.convex import ConvexProgram, VariableSpace, check_feasible, solve
from fsotraj.convex import program as program_mod
from fsotraj.convex import solver as solver_mod
from fsotraj.errors import SolverError
from fsotraj.mission import Scenario, initialize_iterate
from fsotraj.optimizer import optimize
from fsotraj.scenario import load_scenario
from fsotraj.subproblem import Subproblem
import reference_assembly
from reference_box import eigenbasis_program, projected_gradient_batch, random_box_programs


SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"


def build_projection_problem(target=(1.0, 2.0)):
    # minimize t  s.t.  |(x, y) - target| <= t
    vs = VariableSpace()
    vs.add("x", ())
    vs.add("y", ())
    vs.add("t", ())
    prog = ConvexProgram(vs)
    prog.objective.lin[vs.index("t")] = 1.0
    cols = np.array([[vs.index("x"), vs.index("y"), vs.index("t")]])
    a = np.array([[[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]])
    b = -np.asarray(target, dtype=float)[None, :]
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

    @pytest.mark.parametrize("scale", [1.0, 10.0])
    def test_equality_qp(self, scale):
        # From x0 = 0 the row x + y - 2 = 0 is off by 2, so at scale 1 its
        # row scaling is 1/2, set by the value; at scale 10 it is 0.1, set
        # by the scaled gradient.
        vs, prog = build_equality_qp(scale)
        sol = solve(prog, tol=1e-9)
        assert sol.status == "optimal"
        assert sol.values["x"] == pytest.approx(1.0, abs=1e-8)
        assert sol.values["y"] == pytest.approx(1.0, abs=1e-8)
        assert sol.objective == pytest.approx(2.0, abs=1e-8)

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
        ref_f, _ = projected_gradient_batch(quad, lin, weights, norm_a, norm_b, lo, hi, iters=2_000)
        for b in range(count):
            prog = eigenbasis_program(quad[b], lin[b], lo[b], hi[b], weights[b], norm_a[b], norm_b[b])
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
            sol = solve(eigenbasis_program(quad[b], lin[b], lo[b], hi[b]), tol=1e-9)
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
    sub = Subproblem(initialize_iterate(sc), sc)
    sub.set_anchor_tradeoff()
    return sub


def band_to_dense(layout, band):
    """The KKT matrix in its original order, read back from band storage."""
    size = layout.kkt_shape[0]
    i, j = np.meshgrid(np.arange(size), np.arange(size), indexing="ij")
    inside = (i - j <= layout.kl) & (j - i <= layout.ku)
    permuted = np.zeros((size, size))
    permuted[inside] = band[layout.kl + layout.ku + i[inside] - j[inside], j[inside]]
    dense = np.empty_like(permuted)
    dense[np.ix_(layout.perm, layout.perm)] = permuted
    return dense


def solve_capturing_kkt_systems(monkeypatch):
    """Solve a trajectory subproblem and return every KKT system it factored
    as (work, coo_vals, rhs, step)."""
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
    return captured


class TestKktAssembly:
    def test_fixed_pattern_matches_coo_conversion(self, monkeypatch):
        # Capture the KKT systems of a real trajectory subproblem solve and
        # check each against its COO triplets, the reference assembly, and
        # against a SuperLU solve of the same system.
        for work, coo_vals, rhs, step in solve_capturing_kkt_systems(monkeypatch):
            layout = work.layout
            pattern = reference_assembly.kkt_pattern(work.program)
            ref = sp.coo_matrix((coo_vals, pattern), shape=layout.kkt_shape).toarray()
            band = work.band(coo_vals)
            assert band.flags.f_contiguous
            assert not band[: layout.kl].any()  # rows dgbtrf fills in
            assert np.max(np.abs(band_to_dense(layout, band) - ref)) <= 1e-14 * np.max(np.abs(ref))

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
            layout = solver_mod._layout(sub.program)
            assert layout.kkt_shape[0] > 15 * n_slots
            bandwidths.add((layout.kl, layout.ku))
        assert len(bandwidths) == 1, bandwidths

    def test_one_band_solve_per_factorization(self, monkeypatch):
        # Each Newton step is one banded LU and one triangular solve with its
        # factors: no refinement pass.
        factored, solved = [], []

        def factor(ab, kl, ku, **kw):
            lu, piv, info = lapack.dgbtrf(ab, kl, ku, **kw)
            factored.append(info)
            return lu, piv, info

        def band_solve(*args, **kw):
            solved.append(1)
            return lapack.dgbtrs(*args, **kw)

        monkeypatch.setattr(solver_mod, "dgbtrf", factor)
        monkeypatch.setattr(solver_mod, "dgbtrs", band_solve)
        sub = moving_subproblem()
        sol = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
        assert sol.status == "optimal"
        assert factored.count(0) >= sol.iterations - 1 > 0
        assert len(solved) == factored.count(0)

    def test_every_factorization_reuses_the_solves_band_buffer(self, monkeypatch):
        # One band buffer per solve: every Newton step refills it and
        # factors it in place.
        bands = []

        def factor(ab, kl, ku, **kw):
            bands.append(ab)
            return lapack.dgbtrf(ab, kl, ku, **kw)

        monkeypatch.setattr(solver_mod, "dgbtrf", factor)
        sub = moving_subproblem()
        sol = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
        assert sol.status == "optimal"
        assert len(bands) >= sol.iterations - 1 > 1
        assert all(np.shares_memory(ab, bands[0]) for ab in bands)

    def test_newton_step_allocates_no_band(self):
        # At N = 400 the band is 2.5 MB; one step on hover_pitch_jitter's
        # first restriction allocates only vectors of the KKT size.
        settings = load_scenario(str(SCENARIOS / "hover_pitch_jitter.ini"))
        sc = settings.scenario
        assert sc.n_slots == 400
        sub = Subproblem(initialize_iterate(sc), sc)
        x0 = sub.anchor_x()
        work = solver_mod._Work(sub.program, x0)
        pt = work.point(x0 / work.sc)
        m = sub.program.n_ineq
        s = np.maximum(-pt.g, 1.0)
        lam = 1.0 / s
        r_dual = work.dual_residual(pt, lam, np.zeros(work.p))
        r_prim = pt.g + s
        rhs = work.newton_system(pt, lam, s, r_dual, r_prim, lam * s - 0.1 * float(s @ lam) / m)
        coo_vals = work.regularized(1e-10)
        layout = work.layout
        assert 8 * layout.band_rows * layout.kkt_shape[0] > 2_000_000
        tracemalloc.start()
        try:
            start = tracemalloc.get_traced_memory()[0]
            step = work.kkt_step(coo_vals, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert step is not None and np.all(np.isfinite(step))
        assert peak - start < 256 * 1024


class TestLayoutCache:
    def test_rcm_runs_once_per_structure(self, monkeypatch):
        shapes = []
        rcm = solver_mod.reverse_cuthill_mckee

        def spy(graph, symmetric_mode=False):
            shapes.append(graph.shape)
            return rcm(graph, symmetric_mode=symmetric_mode)

        monkeypatch.setattr(solver_mod, "reverse_cuthill_mckee", spy)
        monkeypatch.setattr(solver_mod, "_last_layout", None)
        settings = load_scenario(str(SCENARIOS / "moving.ini"))
        assert settings.scenario.n_slots == 100
        result = optimize(settings.scenario, settings.optimizer)
        assert len(result.history) > 1
        assert len(shapes) == 1
        # A program of another structure gets a layout of its own.
        sub = moving_subproblem(n_slots=12)
        assert solve(sub.program, tol=1e-8, x0=sub.anchor_x()).status == "optimal"
        assert len(shapes) == 2
        assert shapes[1] == solver_mod._last_layout.kkt_shape != shapes[0]

    def test_same_shape_other_pattern_gets_its_own_layout(self):
        vs, cone = build_projection_problem()
        box = ConvexProgram(vs)
        box.objective.lin[vs.index("t")] = 1.0
        add_box(box, [-1.0] * 3, [1.0] * 3)
        assert solve(cone, tol=1e-8).status == "optimal"
        cone_layout = solver_mod._last_layout
        sol = solve(box, tol=1e-8)
        assert sol.status == "optimal"
        assert sol.values["t"] == pytest.approx(-1.0, abs=1e-6)
        assert solver_mod._last_layout is not cone_layout
        assert solver_mod._last_layout.kkt_shape == cone_layout.kkt_shape

    def test_same_sizes_moved_column_gets_its_own_layout(self):
        # Moving one member's column keeps every size and the merged pattern,
        # so the RCM order, but not the COO order that the layout's band slots
        # follow.
        def program(hi_cols):
            vs = VariableSpace()
            vs.add("x", 3)
            prog = ConvexProgram(vs)
            prog.objective.lin[:] = [-1.0, -2.0, -3.0]
            prog.add_linear_ineq("hi", np.array(hi_cols)[:, None], np.ones((3, 1)), -np.array([1.0, 2.0, 3.0]))
            prog.add_linear_ineq("lo", np.arange(3)[:, None], -np.ones((3, 1)), np.zeros(3))
            return prog

        base, moved = program([0, 1, 2]), program([0, 2, 1])
        assert solve(base, tol=1e-8).status == "optimal"
        layout = solver_mod._last_layout
        assert layout.matches(base) and not layout.matches(moved)
        sol = solve(moved, tol=1e-8)
        fresh = solver_mod._last_layout
        assert fresh is not layout
        assert fresh.kkt_shape == layout.kkt_shape
        assert np.array_equal(fresh.perm, layout.perm)
        assert not np.array_equal(reference_assembly.kkt_pattern(moved)[1], reference_assembly.kkt_pattern(base)[1])
        assert not np.array_equal(fresh.coo_band, layout.coo_band)
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [1.0, 3.0, 2.0], atol=1e-6)

    def test_reused_layout_gives_the_bits_of_a_new_one(self, monkeypatch):
        # The cached layout comes from a program of the same structure with
        # another trade-off; emptying the cache must not change any bit.
        sub = moving_subproblem()
        first = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
        assert first.status == "optimal"
        layout = solver_mod._last_layout
        sub.set_tradeoff(0.9 * sub.tradeoff)
        warm = solve(sub.program, tol=1e-8, x0=first.x, lam0=first.lam)
        assert solver_mod._last_layout is layout
        monkeypatch.setattr(solver_mod, "_last_layout", None)
        fresh = solve(sub.program, tol=1e-8, x0=first.x, lam0=first.lam)
        assert solver_mod._last_layout is not layout
        assert np.array_equal(warm.x, fresh.x)
        assert np.array_equal(warm.lam, fresh.lam)
        assert (warm.iterations, warm.status) == (fresh.iterations, fresh.status)

    def test_same_columns_other_block_split_gets_its_own_layout(self):
        # The same columns in the same order, first as an objective norm
        # term and then as an inequality family: the KKT pattern is equal,
        # but the flat index and the family slices are not.
        def program(as_norm):
            vs = VariableSpace()
            vs.add("x", 2)
            prog = ConvexProgram(vs)
            cols, a = np.array([[0, 1]]), np.eye(2)[None]
            if as_norm:  # minimize |x - (1, 2)|
                prog.add_objective_norm(np.ones(1), cols, a, -np.array([[1.0, 2.0]]))
            else:  # minimize -x0 - x1 s.t. |x| <= 1
                prog.objective.lin[:] = -1.0
                prog.add_soc("disc", cols, a, np.zeros((1, 2)), np.zeros((1, 2)), np.ones(1))
            add_box(prog, [-3.0, -3.0], [3.0, 3.0])
            return prog

        norm, cone = program(True), program(False)
        assert solve(norm, tol=1e-8).status == "optimal"
        layout = solver_mod._last_layout
        assert not layout.matches(cone)
        sol = solve(cone, tol=1e-8)
        assert solver_mod._last_layout is not layout
        assert sol.status == "optimal"
        np.testing.assert_allclose(sol.x, [math.sqrt(0.5)] * 2, atol=1e-6)


class TestLayoutHoldsThePattern:
    def test_two_solves_share_the_layout_index_and_slices(self, monkeypatch):
        # Everything that depends only on the KKT pattern is built once, in
        # the layout; each solve's _Work keeps only that solve's values.
        sub = moving_subproblem()
        works = []
        init = solver_mod._Work.__init__

        def spy(work, program, x0):
            init(work, program, x0)
            works.append(work)

        monkeypatch.setattr(solver_mod._Work, "__init__", spy)
        first = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
        sub.set_tradeoff(0.9 * sub.tradeoff)
        assert solve(sub.program, tol=1e-8, x0=first.x, lam0=first.lam).status == "optimal"
        a, b = works
        layout = a.layout
        assert b.layout is layout
        assert not {"index", "member", "eq_member", "jcols"} & vars(a).keys()
        for rows, slices in ((a.fams, layout.fam_slices), (a.eqs, layout.eq_slices)):
            assert [(f.rows, f.entries) for f in rows] == list(slices)
        for fa, fb in zip([*a.fams, *a.eqs], [*b.fams, *b.eqs]):
            assert fa.rows is fb.rows and fa.entries is fb.entries
        # Each solve's block views cut its own value buffer at the layout's
        # block slices.
        program = sub.program
        for work in works:
            pairs = [*zip(work.norm_blocks, layout.norm_blocks), *zip(work.fam_blocks, layout.fam_blocks)]
            assert len(pairs) == len(program.objective.norms) + len(program.families)
            for view, span in pairs:
                assert view.size == span.stop - span.start
                assert np.shares_memory(view, work.kkt_vals[span])

    def test_block_slices_cut_the_coo_pattern_at_each_block(self):
        # One list of blocks gives the COO pattern, every block's slice and
        # every entry's band slot, so each slice holds exactly that block's
        # entries and each entry sits at its permuted (row, column).
        program = moving_subproblem().program
        layout = solver_mod._Layout(program)
        n, p = program.space.dimension, program.n_eq
        assert p > 0 and program.objective.norms
        rows, cols = reference_assembly.kkt_pattern(program)
        inv = np.empty_like(layout.perm)
        inv[layout.perm] = np.arange(layout.perm.size)
        slots = layout.kl + layout.ku + inv[rows] - inv[cols] + layout.band_rows * inv[cols]
        assert np.array_equal(layout.coo_band, slots)
        coo = np.column_stack([rows, cols])
        spans = [layout.diag, *layout.norm_blocks, *layout.fam_blocks, layout.e_block, layout.et_block, layout.dual_diag]
        assert spans[0].start == 0 and spans[-1].stop == len(coo)
        assert all(s.stop == t.start for s, t in zip(spans, spans[1:]))
        diag, dual = np.arange(n), np.arange(n, n + p)
        assert np.array_equal(coo[layout.diag], np.column_stack([diag, diag]))
        assert np.array_equal(coo[layout.dual_diag], np.column_stack([dual, dual]))
        for block, span in zip([*program.objective.norms, *program.families], [*layout.norm_blocks, *layout.fam_blocks]):
            i = np.broadcast_to(block.cols[:, :, None], (block.m, block.nloc, block.nloc))
            j = np.broadcast_to(block.cols[:, None, :], (block.m, block.nloc, block.nloc))
            assert np.array_equal(coo[span], np.column_stack([i.ravel(), j.ravel()]))
        e_rows, e_cols, row = [], [], n
        for fam in program.eq_families:
            e_rows.append(np.repeat(np.arange(row, row + fam.m), fam.nloc))
            e_cols.append(fam.cols.ravel())
            row += fam.m
        e = np.column_stack([np.concatenate(e_rows), np.concatenate(e_cols)])
        assert np.array_equal(coo[layout.e_block], e)
        assert np.array_equal(coo[layout.et_block], e[:, ::-1])

    def test_every_layout_array_is_read_only(self):
        layout = solver_mod._Layout(moving_subproblem().program)
        arrays = []
        for value in vars(layout).values():
            arrays += [v for v in (value if isinstance(value, tuple) else (value,)) if isinstance(v, np.ndarray)]
        names = {"index", "member", "eq_member", "jcols", "perm", "coo_band"}
        assert len(arrays) >= len(names) + len(layout.block_cols)
        for name in names:
            assert any(getattr(layout, name) is arr for arr in arrays), name
            assert getattr(layout, name).dtype == np.int32, name
        # The COO pattern is not kept once the order and the band slots are built.
        assert not {"kkt_rows", "kkt_cols"} & vars(layout).keys()
        for arr in arrays:
            assert not arr.flags.writeable
        with pytest.raises(ValueError):
            layout.index[0] = 1


class TestEvaluationsPerPoint:
    def test_one_local_call_per_family_per_point(self, monkeypatch):
        # Every visited point (the start point and each line-search trial)
        # evaluates each family and each objective norm term once; the
        # Newton loop builds their Hessians from the accepted point's aux.
        sub = moving_subproblem()
        program = sub.program
        x0 = sub.anchor_x()
        reference = solve(program, tol=1e-8, x0=x0)
        fams = [*program.families, *program.eq_families]
        terms = program.objective.norms
        assert len(terms) == 1
        linear = [isinstance(fam, program_mod.LinearFamily) for fam in program.families]
        assert any(linear) and not all(linear)
        log = []  # (family index, x, local gradient) per local call
        term_log = []  # (term index, x, local gradient) per local call
        hess_calls = [0] * len(fams)
        term_hess_calls = [0] * len(terms)
        for blocks, calls, local_log in ((fams, hess_calls, log), (terms, term_hess_calls, term_log)):
            for k, block in enumerate(blocks):

                def local(x, k=k, inner=block.local, local_log=local_log):
                    vals, grad, aux = inner(x)
                    local_log.append((k, x, grad))
                    return vals, grad, aux

                def hess_at(aux, lam, k=k, inner=block.hess_at, calls=calls):
                    calls[k] += 1
                    return inner(aux, lam)

                monkeypatch.setattr(block, "local", local)
                monkeypatch.setattr(block, "hess_at", hess_at)
        points = []
        point = solver_mod._Work.point

        def point_spy(work, xs):
            pt = point(work, xs)
            points.append((work, pt))
            return pt

        monkeypatch.setattr(solver_mod._Work, "point", point_spy)
        sol = solve(program, tol=1e-8, x0=x0)
        assert sol.status == "optimal"
        assert np.array_equal(sol.x, reference.x) and np.array_equal(sol.lam, reference.lam)

        nf = len(fams)
        # _Work.__init__ evaluates every family once at x0 for the row
        # scaling; then each point evaluates every family once, at one x.
        assert len(log) == nf * (1 + len(points))
        chunks = [log[i : i + nf] for i in range(0, len(log), nf)]
        assert all([k for k, _, _ in chunk] == list(range(nf)) for chunk in chunks)
        assert all(np.array_equal(x, x0) for _, x, _ in chunks[0])
        assert all(x is chunk[0][1] for chunk in chunks[1:] for _, x, _ in chunk)
        # The norm term is evaluated at x0 for the objective scale, at each
        # point with the families' x, and once more for the returned
        # objective.
        assert [k for k, _, _ in term_log] == [0] * (2 + len(points))
        assert np.array_equal(term_log[0][1], x0)
        assert all(x is chunk[0][1] for (_, x, _), chunk in zip(term_log[1:-1], chunks[1:]))
        assert np.array_equal(term_log[-1][1], sol.x)

        # The last iteration only tests convergence; every other one is a
        # Newton step with at least one line-search trial.
        steps = sol.iterations - 1
        assert len(points) >= 1 + steps
        assert hess_calls == [0 if lin else steps for lin in linear] + [0] * len(program.eq_families)
        assert term_hess_calls == [steps]

        # Every family, linear or curved, has its scaled gradient written at
        # every point from that point's own local call: (local gradient x
        # colscale) x rho, bit for bit.
        works = {id(work) for work, _ in points}
        assert len(works) == 1
        for (work, pt), chunk in zip(points, chunks[1:]):
            assert [f.linear for f in work.fams] == linear
            for f, (_, _, grad) in zip(work.fams, chunk):
                assert np.array_equal(work.block(pt.grad, f), grad * f.colscale * f.rho[:, None])

    def test_one_gather_per_family_per_evaluation(self, monkeypatch):
        # Each local call gathers its block's columns once: the
        # norm part, a cone's right-hand side and an epigraph's t read the
        # same gathered block.
        sc = load_scenario(str(SCENARIOS / "hover_pitch_jitter.ini")).scenario
        sub = Subproblem(initialize_iterate(sc), sc)
        program, x = sub.program, sub.anchor_x()
        blocks = [*program.families, *program.eq_families, *program.objective.norms]
        assert any(isinstance(b, program_mod.SocFamily) and not b.const_rhs for b in blocks)
        kinds = {type(b) for b in blocks}
        assert {program_mod.LogEpigraphFamily, program_mod.CubicEpigraphFamily, program_mod.NormTerm} <= kinds
        counts = []
        for k, block in enumerate(blocks):

            def gather(x, k=k, inner=block.gather):
                counts.append(k)
                return inner(x)

            monkeypatch.setattr(block, "gather", gather)
        for k, block in enumerate(blocks):
            counts.clear()
            block.local(x)
            assert counts == [k], block.tag


def bundled_moving_restriction():
    """The first restriction of the bundled moving scenario (N=100)."""
    sc = load_scenario(str(SCENARIOS / "moving.ini")).scenario
    sub = Subproblem(initialize_iterate(sc), sc)
    sub.set_anchor_tradeoff()
    return sub


class TestFlatLayout:
    def test_fused_scatters_equal_per_family_reference(self, monkeypatch):
        # Each scatter is one bincount over the flat member-entry layout. It
        # adds in input order from 0.0, so it must give the bits of the
        # per-family np.add.at from the base vector, at every point.
        sub = bundled_moving_restriction()
        objective = sub.program.objective
        xs_of = {}  # id(point) -> (point, scaled x)
        checked = {"points": 0, "dual": 0, "newton": 0}
        point, dual_residual, newton_system = (
            solver_mod._Work.point,
            solver_mod._Work.dual_residual,
            solver_mod._Work.newton_system,
        )

        def point_spy(work, xs):
            pt = point(work, xs)
            x = xs * work.sc
            assert np.array_equal(pt.obj_grad, reference_assembly.objective_gradient(objective, x) * work.sc)
            grads = reference_assembly.family_gradients(work.fams, x)
            assert np.array_equal(pt.grad, np.concatenate([grad.ravel() for grad in grads]))
            xs_of[id(pt)] = (pt, x)
            checked["points"] += 1
            return pt

        def dual_spy(work, pt, lam, nu):
            r = dual_residual(work, pt, lam, nu)
            assert np.array_equal(r, reference_assembly.dual_residual(work, xs_of[id(pt)][1], pt.obj_grad, lam, nu))
            checked["dual"] += 1
            return r

        def newton_spy(work, pt, lam, s, r_dual, r_prim, r_cent):
            rhs = newton_system(work, pt, lam, s, r_dual, r_prim, r_cent)
            x = xs_of[id(pt)][1]
            ref = reference_assembly.newton_rhs(work, x, r_dual, pt.r_eq, lam, s, r_prim, r_cent)
            assert np.array_equal(rhs, ref)
            blocks = work.kkt_vals[work.n : work.kkt_vals.size - work.p]
            assert np.array_equal(blocks, reference_assembly.kkt_blocks(work, x, lam, s))
            checked["newton"] += 1
            return rhs

        monkeypatch.setattr(solver_mod._Work, "point", point_spy)
        monkeypatch.setattr(solver_mod._Work, "dual_residual", dual_spy)
        monkeypatch.setattr(solver_mod._Work, "newton_system", newton_spy)
        sol = solve(sub.program, tol=1e-8, x0=sub.anchor_x())
        assert sol.status == "optimal"
        assert checked["dual"] == checked["points"] >= sol.iterations
        assert checked["newton"] == sol.iterations - 1

    def test_two_threads_give_the_bits_of_sequential_solves(self):
        # Concurrent solves share the cached layout and nothing else: each
        # keeps its buffers in its own _Work.
        subs = [bundled_moving_restriction() for _ in range(2)]
        subs[1].set_tradeoff(0.9 * subs[1].tradeoff)
        sequential = [solve(sub.program, tol=1e-8, x0=sub.anchor_x()) for sub in subs]
        assert all(sol.status == "optimal" for sol in sequential)
        start = threading.Barrier(2)
        concurrent = [None, None]

        def run(k):
            start.wait()
            concurrent[k] = solve(subs[k].program, tol=1e-8, x0=subs[k].anchor_x())

        threads = [threading.Thread(target=run, args=(k,)) for k in range(2)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
            assert not thread.is_alive()
        assert all(sol is not None for sol in concurrent)
        for seq, con in zip(sequential, concurrent):
            assert np.array_equal(seq.x, con.x) and np.array_equal(seq.lam, con.lam)
            assert (seq.iterations, seq.status, seq.objective) == (con.iterations, con.status, con.objective)


class TestInputValidation:
    def boxed_projection(self):
        vs, prog = build_projection_problem()
        add_box(prog, [-10.0] * 3, [10.0] * 3)
        return prog

    @pytest.mark.parametrize("length", [1, 6, 8])
    def test_lam0_of_wrong_length_raises(self, length):
        prog = self.boxed_projection()
        assert prog.n_ineq == 7
        with pytest.raises(ValueError, match=rf"lam0 has shape \({length},\).*expected \(7,\)"):
            solve(prog, tol=1e-8, lam0=np.full(length, 5.0))

    def test_lam0_of_wrong_rank_raises(self):
        with pytest.raises(ValueError, match=r"lam0 has shape \(7, 1\)"):
            solve(self.boxed_projection(), tol=1e-8, lam0=np.ones((7, 1)))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_lam0_raises(self, bad):
        lam0 = np.ones(7)
        lam0[3] = bad
        with pytest.raises(ValueError, match="non-finite"):
            solve(self.boxed_projection(), tol=1e-8, lam0=lam0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_x0_raises(self, bad):
        # Unchecked, a NaN start on the apex toy ran to max_iter with NaN residuals.
        with pytest.raises(ValueError, match="x0 has non-finite entries"):
            solve(build_projection_problem()[1], tol=1e-8, x0=np.array([bad, 0.0, 0.0]))

    @pytest.mark.parametrize("shape", [(2,), (4,), (3, 1)])
    def test_x0_of_wrong_shape_raises(self, shape):
        with pytest.raises(ValueError, match=r"x0 has shape .*expected \(3,\)"):
            solve(self.boxed_projection(), tol=1e-8, x0=np.zeros(shape))


def test_cone_apex_optimal_count():
    # The projection's optimum sits at the cone apex, where the scalar-slack
    # cone's Hessian grows like 1/|u|. All 60 of these targets end optimal; a
    # solver change must not lower that count.
    targets = np.vstack([[1.0, 2.0], np.random.default_rng(0).uniform(-5, 5, (59, 2))])
    statuses = [solve(build_projection_problem(c)[1], tol=1e-8).status for c in targets]
    assert statuses.count("optimal") >= 60


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
        g = np.concatenate([fam.local(sol.x)[0] for fam in sub.program.families])
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


class TestRejectedLineSearch:
    def test_near_optimal_start_is_not_labelled_optimal(self, monkeypatch):
        # minimize x^2 - 2x from x0 = 1 + 2.5 tol: the gradient 5 tol is
        # within 10 tol of stationarity but not within tol, and no trial
        # passes the line search, so the solve has not met its criterion.
        vs = VariableSpace()
        vs.add("x", ())
        prog = ConvexProgram(vs)
        prog.objective.quad_diag[:] = 2.0
        prog.objective.lin[:] = -2.0
        tol = 1e-8
        monkeypatch.setattr(solver_mod, "_ARMIJO", 1e12)
        sol = solve(prog, tol=tol, x0=np.array([1.0 + 2.5 * tol]))
        assert tol < sol.kkt["stationarity"] <= 10 * tol
        assert sol.status == "max_iter"
        with pytest.raises(SolverError, match="max_iter"):
            solver_mod.require_optimal(sol)


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
            assert fam.local(mid)[0][0] <= 1e-12

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
            assert fam.local(mid)[0][0] <= 1e-9


def test_family_census():
    vs, prog = build_projection_problem()
    assert reference_assembly.census(prog) == {"dist": 1}
