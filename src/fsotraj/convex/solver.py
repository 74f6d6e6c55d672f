"""Primal-dual interior-point solver for the canonical convex subproblem.

Assumes every inequality family exposes smooth convex values / gradients /
Hessians (see program.py). Inequalities get slacks (g(x) + s = 0, s > 0);
Newton steps on the perturbed KKT conditions with a fraction-to-boundary rule
and a residual-norm backtracking line search. The reduced KKT system has a
fixed sparsity pattern per program. Once per solve, its variables are put in
reverse Cuthill-McKee order, which gives the trajectory programs a small
half-bandwidth independent of the slot count, and every COO entry is mapped
to its merged entry and that entry to its slot in LAPACK band storage. Each
Newton step sums the per-family dense block values into the merged entries,
scatters them into the band, factors it with banded LU (``dgbtrf``) and
refines the solution once with the same factors. Constraint gradients are
evaluated once per iterate and shared by the dual residual, the KKT assembly
and the slack step.

Warm start: ``Solution.lam`` holds the inequality multipliers in physical
units (the internal multiplier times the row scaling, which every solve
rebuilds from its own start point). Passing them back as ``lam0`` starts the
next solve's duals there, divided by the new row scaling and floored, with
the slacks started near the constraint values at x0. Without ``lam0`` the
duals start cold, centred on the objective's gradient scale.

Deterministic: no randomness anywhere, so identical programs produce
bit-identical solutions on one platform.
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
from .program import ConvexProgram

_SIGMA = 0.1  # centering parameter
_BOUNDARY_FRACTION = 0.99
_BACKTRACK = 0.5
_ARMIJO = 0.01
# Warm-start floors: slacks at _WARM_SLACK_FLOOR, multipliers at
# _WARM_LAM_FLOOR * obj_scale. Newton steps of optimize on the bundled moving
# and hover_pitch_jitter scenarios (cold: 882 and 1070) over a grid of
# (slack, multiplier) floors: (1e-4, 1e-6) 500 and 740, (1e-4, 1e-4) 529 and
# 652, (1e-3, 1e-4) 596 and 588. The last has the fewest steps on the larger
# problem. The first moves hover_pitch_jitter's final true efficiency by
# -6.7e-10 relative; the others by less.
_WARM_SLACK_FLOOR = 1e-3
_WARM_LAM_FLOOR = 1e-4


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
    status: str  # optimal | infeasible | max_iter
    kkt: dict[str, float]
    dual_bound: float
    iterations: int
    lam: np.ndarray = field(repr=False, default=None)
    nu: np.ndarray = field(repr=False, default=None)


class _Point(NamedTuple):
    """Scaled residual pieces at one primal-dual point."""

    g: np.ndarray  # row-scaled inequality values
    r_eq: np.ndarray  # row-scaled equality residual
    grads: list  # per family: row- and column-scaled local gradients
    obj_grad: np.ndarray  # column-scaled objective gradient
    r_dual: np.ndarray  # obj_grad + J' lam + E' nu


def _residual_norm(parts) -> float:
    return float(np.sqrt(sum(float(r @ r) for r in parts)))


class _Work:
    """Per-solve cached structure: scalings and the banded KKT layout."""

    def __init__(self, program: ConvexProgram, x0: np.ndarray):
        self.program = program
        n = program.space.dimension
        self.n = n
        self.sc = program.space.scales()
        self.fams = program.families
        self.eqs = program.eq_families
        self.m = program.n_ineq
        self.p = program.n_eq

        # Row scaling from the start point: 1 / max(1, |g|, |scaled grad|_inf).
        self.rho = []
        for fam in self.fams:
            vals = fam.values(x0)
            grads = fam.grad_loc(x0) * self.sc[fam.cols]
            mag = np.maximum(np.abs(vals), np.max(np.abs(grads), axis=1))
            self.rho.append(1.0 / np.maximum(1.0, mag))
        # An internal multiplier times its row scale is the physical multiplier.
        self.row_scale = np.concatenate(self.rho) if self.rho else np.zeros(0)
        self.rho_eq = []
        for fam in self.eqs:
            grads = fam.grad_loc(x0) * self.sc[fam.cols]
            mag = np.max(np.abs(grads), axis=1)
            self.rho_eq.append(1.0 / np.maximum(1.0, mag))
        self.eq_row_scale = np.concatenate(self.rho_eq) if self.rho_eq else np.zeros(0)

        # COO structure of the KKT matrix [[M, E'], [E, -delta I]].
        rows, cols = [np.arange(n)], [np.arange(n)]  # primal regularization diag
        quad_idx = np.arange(n)
        rows.append(quad_idx)
        cols.append(quad_idx)
        if program.objective.quad_coo is not None:
            qi, qj, _ = program.objective.quad_coo
            rows.append(qi)
            cols.append(qj)
        for term in program.objective.norms:
            i = np.repeat(term.cols[:, :, None], term.cols.shape[1], axis=2)
            j = np.repeat(term.cols[:, None, :], term.cols.shape[1], axis=1)
            rows.append(i.ravel())
            cols.append(j.ravel())
        for fam in self.fams:
            bi, bj = fam.block_structure()
            rows.append(bi)
            cols.append(bj)
        # E block first (all families), then its transpose, matching the
        # order the value arrays are concatenated in at every iteration.
        row_off = 0
        eq_rows, eq_cols = [], []
        for fam in self.eqs:
            jr, jc = fam.jac_structure()
            eq_rows.append(jr + row_off + n)
            eq_cols.append(jc)
            row_off += fam.m
        rows.extend(eq_rows)
        cols.extend(eq_cols)
        rows.extend(eq_cols)
        cols.extend(eq_rows)
        if self.p:
            dual_idx = np.arange(n, n + self.p)
            rows.append(dual_idx)
            cols.append(dual_idx)
        self.kkt_rows = np.concatenate(rows)
        self.kkt_cols = np.concatenate(cols)
        size = n + self.p
        self.kkt_shape = (size, size)
        # Reverse Cuthill-McKee order of the pattern. Permuted entry (i, j)
        # sits at row kl + ku + i - j, column j of a Fortran-ordered
        # (2 kl + ku + 1) x size band, the layout dgbtrf factors in place.
        # The bool pattern and the int32 lookup below keep the set-up's
        # scratch memory small.
        present = np.ones(self.kkt_rows.size, dtype=bool)
        pattern = sp.csr_matrix((present, (self.kkt_rows, self.kkt_cols)), shape=self.kkt_shape)
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        inv = np.empty(size, dtype=np.intp)
        inv[self.perm] = np.arange(size)
        # Merged entries in row-major order, their band slots, and the merged
        # entry of every COO entry (the band slot is a collision-free key).
        # The refinement residual multiplies by the merged entries, the
        # matrix that is factored.
        self.entry_rows = np.repeat(np.arange(size), np.diff(pattern.indptr))
        self.entry_cols = pattern.indices
        ei, ej = inv[self.entry_rows], inv[self.entry_cols]
        self.kl = int(np.max(ei - ej, initial=0))
        self.ku = int(np.max(ej - ei, initial=0))
        self.band_rows = 2 * self.kl + self.ku + 1
        self.entry_band = self.kl + self.ku + ei - ej + self.band_rows * ej
        lookup = np.empty(self.band_rows * size, dtype=np.int32)
        lookup[self.entry_band] = np.arange(self.entry_band.size)
        ci, cj = inv[self.kkt_rows], inv[self.kkt_cols]
        self.entry_slot = lookup[self.kl + self.ku + ci - cj + self.band_rows * cj].astype(np.intp)

        # Scaled equality Jacobian values are constant.
        self.eq_vals = []
        for fam, rho in zip(self.eqs, self.rho_eq):
            self.eq_vals.append((fam.grad_loc(x0) * self.sc[fam.cols] * rho[:, None]).ravel())

    def eq_residual(self, x):
        if not self.eqs:
            return np.zeros(0)
        return np.concatenate([fam.values(x) * rho for fam, rho in zip(self.eqs, self.rho_eq)])

    def ineq_values(self, x):
        if not self.fams:
            return np.zeros(0)
        return np.concatenate([fam.values(x) * rho for fam, rho in zip(self.fams, self.rho)])

    def scaled_obj_grad(self, x):
        return self.program.objective.grad(x) * self.sc

    def point(self, xs, lam, nu) -> _Point:
        """Values, gradients and dual residual at the scaled point xs."""
        x = xs * self.sc
        grads = [
            fam.grad_loc(x) * self.sc[fam.cols] * rho[:, None] for fam, rho in zip(self.fams, self.rho)
        ]
        obj_grad = self.scaled_obj_grad(x)
        r = obj_grad.copy()
        off = 0
        for fam, g in zip(self.fams, grads):
            np.add.at(r, fam.cols.ravel(), (g * lam[off : off + fam.m, None]).ravel())
            off += fam.m
        off = 0
        for fam, vals in zip(self.eqs, self.eq_vals):
            g = vals.reshape(fam.m, fam.nloc)
            np.add.at(r, fam.cols.ravel(), (g * nu[off : off + fam.m, None]).ravel())
            off += fam.m
        return _Point(self.ineq_values(x), self.eq_residual(x), grads, obj_grad, r)

    def kkt_entries(self, coo_vals):
        """Merged KKT entries from values in COO entry order, duplicates summed."""
        return np.bincount(self.entry_slot, weights=coo_vals, minlength=self.entry_band.size)

    def kkt_band(self, entries):
        """The RCM-ordered KKT matrix in LAPACK band storage."""
        band = np.zeros(self.band_rows * self.kkt_shape[0])
        band[self.entry_band] = entries
        return band.reshape((self.band_rows, self.kkt_shape[0]), order="F")

    def kkt_step(self, coo_vals, rhs):
        """Solve the KKT system with values coo_vals for rhs: banded LU plus
        one step of iterative refinement. None when a pivot is exactly zero."""
        entries = self.kkt_entries(coo_vals)
        lu, piv, info = dgbtrf(self.kkt_band(entries), self.kl, self.ku, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dgbtrf rejected argument {-info}")
        if info > 0:
            return None

        def band_solve(b):
            y, info = dgbtrs(lu, self.kl, self.ku, b[self.perm], piv, overwrite_b=1)
            if info:
                raise ValueError(f"dgbtrs rejected argument {-info}")
            x = np.empty_like(y)
            x[self.perm] = y
            return x

        step = band_solve(rhs)
        product = np.bincount(self.entry_rows, weights=entries * step[self.entry_cols], minlength=rhs.size)
        return step + band_solve(rhs - product)


def _objective_hessian_blocks(program: ConvexProgram, x, sc):
    """Diagonal + norm-term value arrays matching the static structure order."""
    vals = [program.objective.quad_diag * sc * sc]
    if program.objective.quad_coo is not None:
        qi, qj, qv = program.objective.quad_coo
        vals.append(qv * sc[qi] * sc[qj])
    for term in program.objective.norms:
        u = np.einsum("mrl,ml->mr", term.a_loc, x[term.cols]) + term.b_loc
        r = np.sqrt(np.einsum("mr,mr->m", u, u) + 1e-20)
        a_sc = term.a_loc * sc[term.cols][:, None, :]
        ata = np.einsum("mrl,mrk->mlk", a_sc, a_sc)
        atu = np.einsum("mrl,mr->ml", a_sc, u)
        outer = np.einsum("ml,mk->mlk", atu, atu)
        h = term.weight[:, None, None] * (ata / r[:, None, None] - outer / (r**3)[:, None, None])
        vals.append(h.ravel())
    return vals


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
    work = _Work(program, x_orig)
    sc = work.sc
    x = x_orig / sc  # internal scaled coordinates
    m, p = work.m, work.p

    obj_scale = max(1.0, float(np.max(np.abs(work.scaled_obj_grad(x_orig)))) if n else 1.0)
    if lam0 is None:
        s = np.maximum(-work.ineq_values(x * sc), 1.0)
        lam = np.full(m, obj_scale) / s
    else:
        s = np.maximum(-work.ineq_values(x * sc), _WARM_SLACK_FLOOR)
        lam = np.maximum(np.asarray(lam0, dtype=float) / work.row_scale, _WARM_LAM_FLOOR * obj_scale)
    nu = np.zeros(p)
    pt = work.point(x, lam, nu)

    delta = 1e-10
    best_prim = np.inf
    stall = 0
    crawl = 0
    status = "max_iter"
    it = 0

    for it in range(1, max_iter + 1):
        x_phys = x * sc
        r_prim = pt.g + s
        r_dual = pt.r_dual
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
            status = "infeasible"
            break

        # M = H_obj + sum lam H_i + J' diag(lam/s) J + delta I; every block
        # but the regularization is fixed per iterate.
        blocks = _objective_hessian_blocks(program, x_phys, sc)
        rhs_x = -r_dual
        off = 0
        for fam, rho, grad_sc in zip(work.fams, work.rho, pt.grads):
            lam_f = lam[off : off + fam.m]
            s_f = s[off : off + fam.m]
            colscale = sc[fam.cols]
            hess = fam.hess_loc(x_phys, lam_f * rho) * colscale[:, :, None] * colscale[:, None, :]
            hess += (lam_f / s_f)[:, None, None] * np.einsum("ml,mk->mlk", grad_sc, grad_sc)
            blocks.append(hess.ravel())
            coeff = (lam_f / s_f) * r_prim[off : off + fam.m] - r_cent[off : off + fam.m] / s_f
            np.add.at(rhs_x, fam.cols.ravel(), -(grad_sc * coeff[:, None]).ravel())
            off += fam.m
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
            off = 0
            for fam, grad_sc in zip(work.fams, pt.grads):
                jdx[off : off + fam.m] = np.einsum("ml,ml->m", grad_sc, dx[fam.cols])
                off += fam.m
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
                trial = work.point(x_t, lam_t, nu_t)
                norm_t = _residual_norm([trial.r_dual, trial.g + s_t, lam_t * s_t - mu, trial.r_eq])
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
            if prim > 1e4 * tol:
                status = "infeasible"
            elif comp <= 10 * tol and stat <= 10 * tol * grad_scale and prim <= 10 * tol:
                status = "optimal"
            else:
                status = "max_iter"
            break
        x, s, lam, nu, pt = x_t, s_t, lam_t, nu_t, trial
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
        "stationarity": float(np.max(np.abs(pt.r_dual))) if n else 0.0,
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


def require_optimal(solution: Solution, context: str = "") -> Solution:
    if solution.status != "optimal":
        raise SolverError(f"solve failed ({solution.status}) {context}: kkt={solution.kkt}")
    return solution
