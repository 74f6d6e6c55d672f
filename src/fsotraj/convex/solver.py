"""Primal-dual interior-point solver for the canonical convex subproblem.

Assumes every inequality family exposes smooth convex values / gradients /
Hessians (see program.py). The objective is affine plus a diagonal quadratic
plus weighted norm terms, and each norm term is evaluated and assembled
through the same ``local`` and ``hess_at`` as a constraint family.
Inequalities get slacks (g(x) + s = 0, s > 0); Newton steps on the perturbed
KKT conditions with a fraction-to-boundary rule and a residual-norm
backtracking line search. A solve is ``optimal`` only when the scaled KKT
residuals are within ``tol``. A solve whose primal residual stops falling, or
whose line search accepts no trial, far from feasibility ends ``infeasible``,
unless its start point meets every constraint to ``check_feasible``'s
tolerance: that point proves the program feasible, so the solve ends
``stalled``. A line search that fails near feasibility ends ``max_iter``.

The reduced KKT system has a fixed sparsity pattern per program, and every
restriction of one trajectory optimization has the same pattern. Its layout
is built once per pattern and reused while the next solve's COO indices equal
it: the variables are put in reverse Cuthill-McKee order, which gives the
trajectory programs a small half-bandwidth independent of the slot count, and
every COO entry is mapped to its merged entry and that entry to its slot in
LAPACK band storage. Each Newton step sums the per-block dense values into
the merged entries, scatters them into the band, factors it with banded LU
(``dgbtrf``) and refines the solution once with the same factors, the
residual being a CSR product with the merged entries.

Each visited point (the start point and every line-search trial) evaluates
every family and every objective norm term once through ``local``: values,
gradients and the inputs of its Hessian, shared by the residuals, the KKT
assembly and the slack step. The Newton step builds each block's Hessian from
the accepted point's ``aux``, not from a second pass over x, and scales its
columns the same way for every block. What stays fixed through a solve is
computed once in ``_Work``: the column scales of every family, the linear
families' scaled gradients and their outer products, and the objective's
scaled quadratic.

Warm start: ``Solution.lam`` holds the inequality multipliers in physical
units (the internal multiplier times the row scaling, which every solve
rebuilds from its own start point). Passing them back as ``lam0`` starts the
next solve's duals there, divided by the new row scaling and floored, with
the slacks started near the constraint values at x0. Without ``lam0`` the
duals start cold, centred on the objective's gradient scale.

Deterministic: no randomness anywhere, so identical programs produce
bit-identical solutions on one platform, whether their layout is built or
reused.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401  (bench/tracer.py wraps spla.splu from outside)
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..errors import SolverError
from .program import ConvexProgram, LinearIneqFamily, _Family, check_feasible

_SIGMA = 0.1  # centering parameter
_BOUNDARY_FRACTION = 0.99
_BACKTRACK = 0.5
_ARMIJO = 0.01
# Warm-start floors: slacks at _WARM_SLACK_FLOOR, multipliers at
# _WARM_LAM_FLOOR * obj_scale. Newton steps of optimize on the bundled moving /
# hover_pitch_jitter / hover scenarios under the forcing schedule of
# `optimizer.solve_tolerance`, per (slack, multiplier) floor pair
# (scripts/sweep_warm_start.py):
#
#   slack \ mult   1e-6          1e-5          1e-4         1e-3         1e-2
#   1e-4           426/481/603*  429/467/599*  458/389/487  559/373/488  644/500/641
#   1e-3           560/443/638*  551/433/633*  523/388/543  496/358/466  594/418/542
#   1e-2           684/443/752   688/429/751   669/418/648  540/402/509  556/418/519
#
# * hover_pitch_jitter at sigma_pitch = 3 mrad then fails a warm solve
# (infeasible). (1e-3, 1e-3) has the fewest steps of the points where every
# solve ends optimal; against (1e-3, 1e-4) it moves the three final true
# efficiencies by +1.3e-10, -1.9e-7 and +8.3e-7 relative.
_WARM_SLACK_FLOOR = 1e-3
_WARM_LAM_FLOOR = 1e-3


@dataclass
class Solution:
    """Solver result: primal values, objective, status, and KKT residuals.

    ``lam`` holds the inequality multipliers and ``nu`` the equality
    multipliers, both in physical units and in the program's family order;
    ``solve(..., lam0=lam)`` warm-starts from ``lam``.
    """

    values: dict
    x: np.ndarray
    objective: float
    status: str  # optimal | infeasible | stalled (started feasible) | max_iter
    kkt: dict[str, float]
    dual_bound: float
    iterations: int
    lam: np.ndarray = field(repr=False, default=None)
    nu: np.ndarray = field(repr=False, default=None)


class _Point(NamedTuple):
    """Scaled residual pieces at one primal point, from one ``local`` call
    per family."""

    g: np.ndarray  # row-scaled inequality values
    r_eq: np.ndarray  # row-scaled equality residual
    grads: list  # per family: row- and column-scaled local gradients
    aux: list  # per family: what its hess_at needs at this point
    obj_grad: np.ndarray  # column-scaled objective gradient
    norms: list  # per objective norm term: its `local` result


class _Rows(NamedTuple):
    """One inequality family's constants for one solve."""

    fam: _Family
    rows: slice  # its rows in the stacked inequality vector
    colscale: np.ndarray  # sc[fam.cols]
    cols: np.ndarray  # fam.cols, flattened
    rho: np.ndarray  # row scaling from the start point
    grad: np.ndarray | None  # linear families: the row- and column-scaled gradient
    outer: np.ndarray | None  # linear families: its per-member outer product


def _scale_columns(hess, colscale):
    """Local Hessians (m, nloc, nloc) in the solver's scaled coordinates."""
    return hess * colscale[:, :, None] * colscale[:, None, :]


def _residual_norm(parts) -> float:
    return float(np.sqrt(sum(float(r @ r) for r in parts)))


def _kkt_structure(program: ConvexProgram):
    """COO rows and columns of the KKT matrix [[M, E'], [E, -delta I]], in the
    order the value arrays are concatenated in at every iteration."""
    n = program.space.dimension
    rows, cols = [np.arange(n)], [np.arange(n)]  # primal regularization diag
    rows.append(np.arange(n))  # diagonal quadratic
    cols.append(np.arange(n))
    for block in [*program.objective.norms, *program.families]:
        bi, bj = block.block_structure()
        rows.append(bi)
        cols.append(bj)
    # E block first (all families), then its transpose.
    row_off = 0
    eq_rows, eq_cols = [], []
    for fam in program.eq_families:
        jr, jc = fam.jac_structure()
        eq_rows.append(jr + row_off + n)
        eq_cols.append(jc)
        row_off += fam.m
    rows.extend(eq_rows)
    cols.extend(eq_cols)
    rows.extend(eq_cols)
    cols.extend(eq_rows)
    if program.n_eq:
        dual_idx = np.arange(n, n + program.n_eq)
        rows.append(dual_idx)
        cols.append(dual_idx)
    return np.concatenate(rows), np.concatenate(cols)


class _Layout:
    """The banded KKT layout of one sparsity pattern: its reverse
    Cuthill-McKee order, the merged entries and their band slots."""

    def __init__(self, kkt_rows: np.ndarray, kkt_cols: np.ndarray, size: int):
        self.kkt_rows = kkt_rows
        self.kkt_cols = kkt_cols
        self.kkt_shape = (size, size)
        # Reverse Cuthill-McKee order of the pattern. Permuted entry (i, j)
        # sits at row kl + ku + i - j, column j of a Fortran-ordered
        # (2 kl + ku + 1) x size band, the layout dgbtrf factors in place.
        # The bool pattern and the int32 lookup below keep the set-up's
        # scratch memory small.
        present = np.ones(kkt_rows.size, dtype=bool)
        pattern = sp.csr_matrix((present, (kkt_rows, kkt_cols)), shape=self.kkt_shape)
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        inv = np.empty(size, dtype=np.intp)
        inv[self.perm] = np.arange(size)
        # Merged entries in CSR order (row-major), their band slots, and the
        # merged entry of every COO entry (the band slot is a collision-free
        # key).
        self.indptr = pattern.indptr
        self.entry_cols = pattern.indices
        entry_rows = np.repeat(np.arange(size), np.diff(self.indptr))
        ei, ej = inv[entry_rows], inv[self.entry_cols]
        self.kl = int(np.max(ei - ej, initial=0))
        self.ku = int(np.max(ej - ei, initial=0))
        self.band_rows = 2 * self.kl + self.ku + 1
        self.entry_band = self.kl + self.ku + ei - ej + self.band_rows * ej
        lookup = np.empty(self.band_rows * size, dtype=np.int32)
        lookup[self.entry_band] = np.arange(self.entry_band.size)
        ci, cj = inv[kkt_rows], inv[kkt_cols]
        self.entry_slot = lookup[self.kl + self.ku + ci - cj + self.band_rows * cj].astype(np.intp)

    def matches(self, kkt_rows: np.ndarray, kkt_cols: np.ndarray, size: int) -> bool:
        return (
            self.kkt_shape == (size, size)
            and np.array_equal(self.kkt_rows, kkt_rows)
            and np.array_equal(self.kkt_cols, kkt_cols)
        )

    def entries(self, coo_vals):
        """Merged KKT entries from values in COO entry order, duplicates summed."""
        return np.bincount(self.entry_slot, weights=coo_vals, minlength=self.entry_band.size)

    def band(self, entries):
        """The RCM-ordered KKT matrix in LAPACK band storage."""
        band = np.zeros(self.band_rows * self.kkt_shape[0])
        band[self.entry_band] = entries
        return band.reshape((self.band_rows, self.kkt_shape[0]), order="F")

    def matvec(self, entries, v):
        """The merged KKT matrix times v, each row summed in entry order."""
        return sp.csr_matrix((entries, self.entry_cols, self.indptr), shape=self.kkt_shape) @ v


# The layout of the most recent solve. Every restriction of one trajectory
# optimization has the same KKT pattern, so each solve after the first reuses
# it; a program with another pattern replaces it. Only one is kept, and none
# is changed after it is built, so concurrent solves may share it.
_last_layout: _Layout | None = None


def _layout(program: ConvexProgram) -> _Layout:
    """The banded layout of the program's KKT pattern, reused from the last
    solve when its COO indices and shape are equal to this program's."""
    global _last_layout
    rows, cols = _kkt_structure(program)
    size = program.space.dimension + program.n_eq
    layout = _last_layout
    if layout is None or not layout.matches(rows, cols, size):
        layout = _last_layout = _Layout(rows, cols, size)
    return layout


class _Work:
    """Per-solve state: the row scalings from the start point, what stays
    constant through the solve (column scales, the linear families' scaled
    gradients, the objective's constant Hessian parts, the scaled equality
    Jacobian), and the banded layout of the program's KKT pattern."""

    def __init__(self, program: ConvexProgram, x0: np.ndarray):
        self.program = program
        sc = self.sc = program.space.scales()
        self.eqs = program.eq_families
        self.p = program.n_eq
        self.layout = _layout(program)

        # Row scaling from the start point: 1 / max(1, |g|, |scaled grad|_inf).
        # It is taken at x0 itself. The first iterate x0 / sc * sc differs
        # from x0 in the last bit of some entries, so this evaluation is not
        # shared with the first point's.
        self.fams = []
        off = 0
        for fam in program.families:
            colscale = sc[fam.cols]
            vals, grad, _ = fam.local(x0)
            grads = grad * colscale
            mag = np.maximum(np.abs(vals), np.max(np.abs(grads), axis=1))
            rho = 1.0 / np.maximum(1.0, mag)
            const = outer = None
            if isinstance(fam, LinearIneqFamily):
                const = grads * rho[:, None]
                outer = np.einsum("ml,mk->mlk", const, const)
            self.fams.append(_Rows(fam, slice(off, off + fam.m), colscale, fam.cols.ravel(), rho, const, outer))
            off += fam.m
        # An internal multiplier times its row scale is the physical multiplier.
        self.row_scale = np.concatenate([f.rho for f in self.fams]) if self.fams else np.zeros(0)
        # Scaled equality Jacobian values are constant.
        self.rho_eq = []
        self.eq_grads = []
        for fam in self.eqs:
            grads = fam.local(x0)[1] * sc[fam.cols]
            rho = 1.0 / np.maximum(1.0, np.max(np.abs(grads), axis=1))
            self.rho_eq.append(rho)
            self.eq_grads.append(grads * rho[:, None])
        self.eq_vals = [g.ravel() for g in self.eq_grads]
        self.eq_row_scale = np.concatenate(self.rho_eq) if self.rho_eq else np.zeros(0)

        # The objective's quadratic part of the Hessian is constant.
        self.quad = program.objective.quad_diag * sc * sc

    def point(self, xs) -> _Point:
        """Values, gradients and Hessian inputs at the scaled point xs."""
        x = xs * self.sc
        g, grads, aux = [], [], []
        for f in self.fams:
            vals, grad, a = f.fam.local(x)
            g.append(vals * f.rho)
            grads.append(grad * f.colscale * f.rho[:, None] if f.grad is None else f.grad)
            aux.append(a)
        r_eq = [fam.local(x)[0] * rho for fam, rho in zip(self.eqs, self.rho_eq)]
        norms = [term.local(x) for term in self.program.objective.norms]
        return _Point(
            np.concatenate(g) if g else np.zeros(0),
            np.concatenate(r_eq) if r_eq else np.zeros(0),
            grads,
            aux,
            self.program.objective.grad(x, norms) * self.sc,
            norms,
        )

    def dual_residual(self, pt: _Point, lam, nu):
        """obj_grad + J' lam + E' nu at the point pt."""
        r = pt.obj_grad.copy()
        for f, g in zip(self.fams, pt.grads):
            np.add.at(r, f.cols, (g * lam[f.rows, None]).ravel())
        off = 0
        for fam, g in zip(self.eqs, self.eq_grads):
            np.add.at(r, fam.cols.ravel(), (g * nu[off : off + fam.m, None]).ravel())
            off += fam.m
        return r

    def objective_hessian_blocks(self, pt: _Point):
        """Quadratic + norm-term value arrays matching the static structure
        order, each norm term's from the aux that the point pt computed."""
        vals = [self.quad]
        for term, (_, _, aux) in zip(self.program.objective.norms, pt.norms):
            vals.append(_scale_columns(term.hess_at(aux, term.weight), self.sc[term.cols]).ravel())
        return vals

    def kkt_step(self, coo_vals, rhs):
        """Solve the KKT system with values coo_vals for rhs: banded LU plus
        one step of iterative refinement. None when a pivot is exactly zero."""
        layout = self.layout
        entries = layout.entries(coo_vals)
        lu, piv, info = dgbtrf(layout.band(entries), layout.kl, layout.ku, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dgbtrf rejected argument {-info}")
        if info > 0:
            return None

        def band_solve(b):
            y, info = dgbtrs(lu, layout.kl, layout.ku, b[layout.perm], piv, overwrite_b=1)
            if info:
                raise ValueError(f"dgbtrs rejected argument {-info}")
            x = np.empty_like(y)
            x[layout.perm] = y
            return x

        step = band_solve(rhs)
        return step + band_solve(rhs - layout.matvec(entries, step))


def solve(
    program: ConvexProgram,
    tol: float = 1e-7,
    max_iter: int = 200,
    x0: np.ndarray | None = None,
    lam0: np.ndarray | None = None,
) -> Solution:
    """Solve the program to KKT residuals <= tol (scaled), or report failure.

    ``lam0`` warm-starts the inequality multipliers from physical values,
    such as the ``lam`` of an earlier solve of a program with the same rows.
    """
    n = program.space.dimension
    x_orig = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x_orig.shape != (n,):
        raise ValueError(f"x0 has shape {x_orig.shape}; the program has {n} variables, expected ({n},)")
    m = program.n_ineq
    if lam0 is not None:
        lam0 = np.asarray(lam0, dtype=float)
        if lam0.shape != (m,):
            raise ValueError(f"lam0 has shape {lam0.shape}; the program has {m} inequality rows, expected ({m},)")
        if not np.all(np.isfinite(lam0)):
            raise ValueError("lam0 has non-finite entries")
    work = _Work(program, x_orig)
    sc = work.sc
    x = x_orig / sc  # internal scaled coordinates
    p = work.p

    obj_scale = max(1.0, float(np.max(np.abs(program.objective.grad(x_orig) * sc))) if n else 1.0)
    pt = work.point(x)
    if lam0 is None:
        s = np.maximum(-pt.g, 1.0)
        lam = np.full(m, obj_scale) / s
    else:
        s = np.maximum(-pt.g, _WARM_SLACK_FLOOR)
        lam = np.maximum(lam0 / work.row_scale, _WARM_LAM_FLOOR * obj_scale)
    nu = np.zeros(p)
    r_dual = work.dual_residual(pt, lam, nu)

    delta = 1e-10
    best_prim = np.inf
    stall = 0
    crawl = 0
    status = "max_iter"
    it = 0

    for it in range(1, max_iter + 1):
        r_prim = pt.g + s
        gap = float(s @ lam) if m else 0.0

        # Convergence on the scaled system.
        comp = float(np.max(lam * s)) if m else 0.0
        stat = float(np.max(np.abs(r_dual))) if n else 0.0
        prim = max(
            float(np.max(np.abs(r_prim))) if m else 0.0,
            float(np.max(np.abs(pt.r_eq))) if p else 0.0,
        )
        # Keep the barrier from collapsing while still infeasible, so that
        # multipliers of violated constraints stay live.
        mu = _SIGMA * max(gap / max(m, 1), 0.1 * prim)
        r_cent = lam * s - mu
        grad_scale = max(1.0, float(np.max(np.abs(pt.obj_grad))))
        if comp <= tol and stat <= tol * grad_scale and prim <= tol:
            status = "optimal"
            break

        # Infeasibility heuristic: primal residual stalls far from feasible
        # while the algorithm keeps tightening everything else.
        if prim < best_prim * 0.9:
            best_prim = prim
            stall = 0
        else:
            stall += 1
        if stall >= 30 and prim > 1e4 * tol:
            status = _far_from_feasible(program, x_orig)
            break

        # M = H_obj + sum lam H_i + J' diag(lam/s) J + delta I; every block
        # but the regularization is fixed per iterate. The curvature comes
        # from the aux the accepted point's local calls left; linear families
        # have none, and their J' diag(lam/s) J block scales a fixed outer
        # product.
        blocks = work.objective_hessian_blocks(pt)
        rhs_x = -r_dual
        for f, grad_sc, aux in zip(work.fams, pt.grads, pt.aux):
            lam_f = lam[f.rows]
            s_f = s[f.rows]
            if f.outer is None:
                hess = _scale_columns(f.fam.hess_at(aux, lam_f * f.rho), f.colscale)
                hess += (lam_f / s_f)[:, None, None] * np.einsum("ml,mk->mlk", grad_sc, grad_sc)
            else:
                hess = (lam_f / s_f)[:, None, None] * f.outer
            blocks.append(hess.ravel())
            coeff = (lam_f / s_f) * r_prim[f.rows] - r_cent[f.rows] / s_f
            np.add.at(rhs_x, f.cols, -(grad_sc * coeff[:, None]).ravel())
        blocks.extend(work.eq_vals)  # E block
        blocks.extend(work.eq_vals)  # E' block
        rhs = np.concatenate([rhs_x, -pt.r_eq]) if p else rhs_x
        base = _residual_norm([r_dual, r_prim, r_cent, pt.r_eq])

        accepted = False
        for _attempt in range(10):
            reg = delta * max(1.0, obj_scale)
            step = work.kkt_step(np.concatenate([np.full(n, reg), *blocks, np.full(p, -reg)]), rhs)
            if step is None or not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1e9:
                delta = max(delta * 100.0, 1e-8)
                continue

            dx = step[:n]
            dnu = step[n:] if p else np.zeros(0)
            jdx = np.zeros(m)
            for f, grad_sc in zip(work.fams, pt.grads):
                jdx[f.rows] = np.einsum("ml,ml->m", grad_sc, dx[f.fam.cols])
            ds = -r_prim - jdx
            dlam = -(lam / s) * ds - r_cent / s if m else np.zeros(0)

            # Fraction-to-boundary on s and lam.
            alpha_bound = 1.0
            if m:
                neg_s = ds < 0
                if np.any(neg_s):
                    alpha_bound = min(
                        alpha_bound, _BOUNDARY_FRACTION * float(np.min(-s[neg_s] / ds[neg_s]))
                    )
                neg_l = dlam < 0
                if np.any(neg_l):
                    alpha_bound = min(
                        alpha_bound, _BOUNDARY_FRACTION * float(np.min(-lam[neg_l] / dlam[neg_l]))
                    )

            alpha = alpha_bound
            for _ in range(30):
                x_t = x + alpha * dx
                s_t = s + alpha * ds
                lam_t = lam + alpha * dlam
                nu_t = nu + alpha * dnu
                trial = work.point(x_t)
                r_dual_t = work.dual_residual(trial, lam_t, nu_t)
                norm_t = _residual_norm([r_dual_t, trial.g + s_t, lam_t * s_t - mu, trial.r_eq])
                if norm_t <= (1.0 - _ARMIJO * alpha) * base:
                    accepted = True
                    break
                alpha *= _BACKTRACK
            if accepted:
                break
            # The residual would not drop along this direction at all:
            # stiffen the regularization and rebuild the step.
            delta = min(max(delta * 30.0, 1e-8), 1e-2)
        if not accepted:
            status = _far_from_feasible(program, x_orig) if prim > 1e4 * tol else "max_iter"
            break
        x, s, lam, nu, pt, r_dual = x_t, s_t, lam_t, nu_t, trial, r_dual_t
        # Persistent crawling (backtracked far below the boundary step on
        # consecutive iterations) marks a flat direction the Newton model
        # mishandles; Levenberg-style stiffening restores progress.
        if alpha < 1e-3 * alpha_bound:
            crawl += 1
            if crawl >= 2:
                delta = min(max(delta * 30.0, 1e-8), 1e-2)
        else:
            crawl = 0
            delta = max(delta * 0.5, 1e-10)

    x_phys = x * sc
    obj = program.objective.value(x_phys)
    kkt_report = {
        "stationarity": float(np.max(np.abs(r_dual))) if n else 0.0,
        "primal_feas": max(
            float(np.max(pt.g)) if m else 0.0, float(np.max(np.abs(pt.r_eq))) if p else 0.0, 0.0
        ),
        "dual_feas": float(max(0.0, -np.min(lam))) if m else 0.0,
        "complementarity": float(np.max(np.abs(lam * s))) if m else 0.0,
    }
    dual_bound = obj - (float(s @ lam) if m else 0.0)
    if p:
        dual_bound -= float(np.abs(pt.r_eq) @ np.abs(nu))
    return Solution(
        values=program.space.unpack(x_phys),
        x=x_phys,
        objective=obj,
        status=status,
        kkt=kkt_report,
        dual_bound=dual_bound,
        iterations=it,
        lam=lam * work.row_scale,
        nu=nu * work.eq_row_scale,
    )


def _far_from_feasible(program: ConvexProgram, x0: np.ndarray) -> str:
    """Status of a solve that stopped far from feasibility: ``infeasible``,
    or ``stalled`` when its start point meets every constraint and so proves
    the program feasible."""
    return "stalled" if check_feasible(program, x0).feasible else "infeasible"


def require_optimal(solution: Solution, context: str = "") -> Solution:
    if solution.status != "optimal":
        raise SolverError(f"solve failed ({solution.status}) {context}: kkt={solution.kkt}")
    return solution
