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
restriction of one trajectory optimization has the same pattern. Everything
that depends only on the pattern is built once, in ``_Layout``, and reused
while the next solve has the same size and the same columns in every block:
the families' flat member-entry index, each block's slice of the COO value
buffer, the reverse Cuthill-McKee order of the variables, which gives the
trajectory programs a small half-bandwidth independent of the slot count, and
the slot of every COO entry in LAPACK band storage. The COO rows and columns
themselves are not kept once the order and the slots are built. Each solve
allocates one band buffer. Each Newton step writes every block's dense values
in place into the COO value buffer, zeroes the band buffer and scatter-adds
the values into it with one ``np.add.at``, factors it in place with banded LU
(``dgbtrf``) and solves once with the factors (``dgbtrs``), so no step
allocates a band-sized array.

Each visited point (the start point and every line-search trial) evaluates
every family and every objective norm term once through ``local``: values,
gradients and the inputs of its Hessian, shared by the residuals, the KKT
assembly and the slack step. The Newton step builds each block's Hessian from
the accepted point's ``aux``, not from a second pass over x, and scales its
columns the same way for every block. Every inequality family, linear or
curved, takes one path: each point writes its scaled gradient, and its KKT
block is the outer product of that gradient times lam/s, plus the scaled
Hessian for a curved family. What stays fixed through a solve is computed
once in ``_Work``: the row and column scales of every family, the equality
rows' scaled gradient (the constant E block), and the objective's scaled
quadratic.

The families' scaled gradients live in one flat member-entry layout, fixed
once per pattern: every family's (m, nloc) block in ``ravel`` order, one after
another, with each entry's row and column. So the dual residual at every
point and the Newton right-hand side are each one ``np.bincount`` over
[arange(n), the families' columns] whose weights start with the base vector:
it adds in input order from 0.0, so each entry gets the bits of adding every
family's terms in turn to the base vector. ``J dx`` gathers dx once.

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
from itertools import accumulate
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla  # noqa: F401  (bench/tracer.py wraps spla.splu from outside)
from scipy.linalg.lapack import dgbtrf, dgbtrs
from scipy.sparse.csgraph import reverse_cuthill_mckee

from ..errors import SolverError
from .program import ConvexProgram, LinearFamily, _Family, check_feasible

_SIGMA = 0.1  # centering parameter
_BOUNDARY_FRACTION = 0.99
_BACKTRACK = 0.5
_ARMIJO = 0.01
_MAX_ITER = 100  # Newton steps a solve may take before it ends ``max_iter``
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

    ``lam`` holds the inequality multipliers in physical units and in the
    program's family order; ``solve(..., lam0=lam)`` warm-starts from it.
    """

    values: dict
    x: np.ndarray
    objective: float
    status: str  # optimal | infeasible | stalled (started feasible) | max_iter
    kkt: dict[str, float]
    dual_bound: float
    iterations: int
    lam: np.ndarray = field(repr=False, default=None)


class _Point(NamedTuple):
    """Scaled residual pieces at one primal point, from one ``local`` call
    per family and per objective norm term."""

    g: np.ndarray  # row-scaled inequality values
    r_eq: np.ndarray  # row-scaled equality residual
    grad: np.ndarray  # row- and column-scaled inequality gradients, in the layout's flat member-entry order
    aux: list  # per family: what its hess_at needs at this point
    obj_grad: np.ndarray  # column-scaled objective gradient
    norms: list  # per objective norm term: its `local` result


class _Rows(NamedTuple):
    """One family's constants for one solve, inequality or equality alike."""

    fam: _Family
    rows: slice  # its rows in its list's stacked row vector
    entries: slice  # its (m, nloc) gradient entries in its list's flat gradient, in ravel order
    colscale: np.ndarray  # sc[fam.cols]
    rho: np.ndarray  # row scaling from the start point
    linear: bool  # it has no Hessian


def _residual_norm(parts) -> float:
    return float(np.sqrt(sum(float(r @ r) for r in parts)))


def _kkt_blocks(program: ConvexProgram):
    """The blocks whose columns fix the KKT pattern, in its order: the
    objective's norm terms, the inequality families, the equality families."""
    return [*program.objective.norms, *program.families, *program.eq_families]


def _spans(sizes) -> list[slice]:
    """Consecutive slices of the given sizes, starting at 0."""
    ends = [0, *accumulate(sizes)]
    return [slice(start, stop) for start, stop in zip(ends, ends[1:])]


def _flat_rows(families):
    """Each family's (rows, entries) slices in its list's stacked rows and
    flat gradient, and the row and the column of every flat entry."""
    rows, entries = _spans(fam.m for fam in families), _spans(fam.cols.size for fam in families)
    member = [np.repeat(np.arange(r.start, r.stop), fam.nloc) for fam, r in zip(families, rows)]
    cols = [fam.cols.ravel() for fam in families]
    member, cols = (np.concatenate([np.zeros(0, np.int32), *part], dtype=np.int32) for part in (member, cols))
    return tuple(zip(rows, entries)), member, cols


class _Layout:
    """Everything that depends only on one KKT sparsity pattern: the flat
    member-entry index (``index`` is [arange(n), the inequality families'
    cols, the equality families' cols], each family in ``ravel`` order, and
    ``member`` and ``eq_member`` give each entry's row), each family's (rows,
    entries) slices, every block's slice of the COO value buffer, the reverse
    Cuthill-McKee order and every COO entry's band slot (``coo_band``). The
    COO rows and columns are dropped once the order and the band slots are
    built. ``index``, ``member``, ``eq_member``, ``perm`` and ``coo_band``
    are int32.

    The pattern is a function of the KKT size, the number of norm terms and
    of inequality and equality families, and every block's ``cols`` in
    ``_kkt_blocks`` order, which it keeps (as copies) to recognise the
    pattern again. Every array is read-only, so concurrent solves may share
    the layout."""

    def __init__(self, program: ConvexProgram):
        n = program.space.dimension
        size = n + program.n_eq
        norms, families = program.objective.norms, program.families
        self.block_cols = tuple(block.cols.copy() for block in _kkt_blocks(program))
        self.counts = (len(norms), len(families), len(program.eq_families))
        self.eq_slices, self.eq_member, eq_cols = _flat_rows(program.eq_families)
        # The COO blocks in value-buffer order: the diagonal (primal
        # regularization plus diagonal quadratic), each norm term's and
        # inequality family's (m, nloc, nloc) block, E, E' and the dual diagonal.
        diag, dual, e_rows = np.arange(n), np.arange(n, size), n + self.eq_member
        blocks = [(diag, diag), *(block.block_structure() for block in [*norms, *families])]
        blocks += [(e_rows, eq_cols), (eq_cols, e_rows), (dual, dual)]
        self.diag, *hess, self.e_block, self.et_block, self.dual_diag = _spans(i.size for i, _ in blocks)
        self.norm_blocks, self.fam_blocks = tuple(hess[: len(norms)]), tuple(hess[len(norms) :])
        kkt_rows, kkt_cols = (np.concatenate(part, dtype=np.int32) for part in zip(*blocks))
        del blocks  # freed before the set-up's scratch below
        self.kkt_shape = (size, size)
        # Reverse Cuthill-McKee order of the pattern. Permuted entry (i, j)
        # sits at row kl + ku + i - j, column j of a Fortran-ordered
        # (2 kl + ku + 1) x size band, the layout dgbtrf factors in place.
        # The int32 COO pattern and the bool pattern keep the set-up's memory
        # small.
        present = np.ones(kkt_rows.size, dtype=bool)
        pattern = sp.csr_matrix((present, (kkt_rows, kkt_cols)), shape=self.kkt_shape)
        self.perm = reverse_cuthill_mckee(pattern, symmetric_mode=True)
        del pattern, present
        inv = np.empty(size, dtype=np.intp)
        inv[self.perm] = np.arange(size)
        # The band slot of every COO entry; duplicates share one.
        cj = inv[kkt_cols]
        offset = inv[kkt_rows] - cj
        del kkt_rows, kkt_cols
        self.kl = int(np.max(offset, initial=0))
        self.ku = int(-np.min(offset, initial=0))
        self.band_rows = 2 * self.kl + self.ku + 1
        offset += self.kl + self.ku + self.band_rows * cj
        self.coo_band = offset.astype(np.int32)
        del cj, offset
        # Built after the band set-up's memory peak, so they do not add to it.
        self.fam_slices, self.member, jcols = _flat_rows(families)
        self.index = np.concatenate([np.arange(n), jcols, eq_cols], dtype=np.int32)
        self.jcols = self.index[n : n + jcols.size]
        for arr in [*vars(self).values(), *self.block_cols]:
            if isinstance(arr, np.ndarray):
                arr.flags.writeable = False

    def matches(self, program: ConvexProgram) -> bool:
        blocks = _kkt_blocks(program)
        return (
            self.kkt_shape[0] == program.space.dimension + program.n_eq
            and self.counts == (len(program.objective.norms), len(program.families), len(program.eq_families))
            and all(np.array_equal(cols, block.cols) for cols, block in zip(self.block_cols, blocks))
        )


# The layout of the most recent solve. Every restriction of one trajectory
# optimization has the same KKT pattern, so each solve after the first reuses
# it; a program with another pattern replaces it. Only one is kept, and none
# is changed after it is built, so concurrent solves may share it.
_last_layout: _Layout | None = None


def _layout(program: ConvexProgram) -> _Layout:
    """The banded layout of the program's KKT pattern, reused from the last
    solve when its size and block columns are equal to this program's."""
    global _last_layout
    layout = _last_layout
    if layout is None or not layout.matches(program):
        layout = _last_layout = _Layout(program)
    return layout


class _Work:
    """Per-solve values on the program's ``_Layout``: one ``_Rows`` per
    inequality family (``fams``) and per equality family (``eqs``), built
    alike from the start point, the equality rows' constant scaled gradient
    in the layout's flat member-entry order (``eq_grad``), the objective's
    constant scaled quadratic, and ``kkt_vals``, the KKT matrix's
    COO value buffer cut at the layout's block slices: the E and E' blocks
    are written once, every other block in place at each Newton step, and
    ``regularized`` writes the two diagonals. ``band_buf`` is the solve's one
    LAPACK band buffer, refilled and factored in place at every step; it
    belongs to the solve, not to the layout, so concurrent solves may still
    share the layout."""

    def __init__(self, program: ConvexProgram, x0: np.ndarray):
        self.program = program
        self.sc = program.space.scales()
        self.n = program.space.dimension
        self.p = program.n_eq
        self.layout = layout = _layout(program)
        self.fams = self._rows(program.families, layout.fam_slices, x0)
        self.eqs = self._rows(program.eq_families, layout.eq_slices, x0)
        # The equality rows are linear, so their scaled gradient, the E block, is constant.
        eq_grads = ((f.fam.coef * f.colscale * f.rho[:, None]).ravel() for f in self.eqs)
        self.eq_grad = np.concatenate([np.zeros(0), *eq_grads])
        # An internal multiplier times its row scale is the physical multiplier.
        self.row_scale = np.concatenate([np.zeros(0), *(f.rho for f in self.fams)])
        self.weights = np.empty(layout.index.size)  # bincount weights, rewritten by every scatter
        # The objective's quadratic part of the Hessian is constant.
        self.quad = program.objective.quad_diag * self.sc * self.sc
        norms = program.objective.norms
        self.norm_colscales = [self.sc[term.cols] for term in norms]

        # The COO value buffer and its per-block (m, nloc, nloc) views.
        self.kkt_vals = vals = np.empty(layout.coo_band.size)
        self.norm_blocks = [vals[span].reshape(t.m, t.nloc, t.nloc) for t, span in zip(norms, layout.norm_blocks)]
        self.fam_blocks = [
            vals[span].reshape(f.m, f.nloc, f.nloc) for f, span in zip(program.families, layout.fam_blocks)
        ]
        vals[layout.e_block] = self.eq_grad
        vals[layout.et_block] = self.eq_grad
        self.band_buf = np.empty(layout.band_rows * layout.kkt_shape[0])

    def _rows(self, families, slices, x0) -> list[_Rows]:
        """Each family's constants, with the row scaling
        1 / max(1, |g(x0)|, |scaled grad|_inf) taken at x0 itself. The first
        iterate x0 / sc * sc differs from x0 in the last bit of some entries,
        so this evaluation is not shared with the first point's."""
        out = []
        for fam, (rows, entries) in zip(families, slices):
            colscale = self.sc[fam.cols]
            vals, grad, _ = fam.local(x0)
            mag = np.maximum(np.abs(vals), np.max(np.abs(grad * colscale), axis=1))
            rho = 1.0 / np.maximum(1.0, mag)
            out.append(_Rows(fam, rows, entries, colscale, rho, isinstance(fam, LinearFamily)))
        return out

    @staticmethod
    def block(flat, f: _Rows):
        """Family f's (m, nloc) view of a flat gradient array."""
        return flat[f.entries].reshape(f.fam.cols.shape)

    def point(self, xs) -> _Point:
        """Values, gradients and Hessian inputs at the scaled point xs."""
        x = xs * self.sc
        g = np.empty(self.row_scale.size)
        grad = np.empty(self.layout.member.size)
        aux = []
        for f in self.fams:
            vals, fgrad, a = f.fam.local(x)
            np.multiply(vals, f.rho, out=g[f.rows])
            block = self.block(grad, f)
            np.multiply(fgrad, f.colscale, out=block)
            block *= f.rho[:, None]
            aux.append(a)
        r_eq = np.empty(self.p)
        for f in self.eqs:
            np.multiply(f.fam.local(x)[0], f.rho, out=r_eq[f.rows])
        norms = [term.local(x) for term in self.program.objective.norms]
        return _Point(g, r_eq, grad, aux, self.program.objective.grad(x, norms) * self.sc, norms)

    def dual_residual(self, pt: _Point, lam, nu):
        """obj_grad + J' lam + E' nu at the point pt, in one scatter."""
        n, ne, layout = self.n, pt.grad.size, self.layout
        w = self.weights
        w[:n] = pt.obj_grad
        np.multiply(pt.grad, lam[layout.member], out=w[n : n + ne])
        np.multiply(self.eq_grad, nu[layout.eq_member], out=w[n + ne :])
        return np.bincount(layout.index, weights=w, minlength=n)

    def newton_system(self, pt: _Point, lam, s, r_dual, r_prim, r_cent):
        """Write the KKT matrix at the point pt into ``kkt_vals``, all but the
        regularization, and return the Newton right-hand side.

        M = H_obj + sum lam H_i + J' diag(lam/s) J + delta I. Each family's
        block is the outer product of its scaled gradient times lam/s, plus,
        for a curved family, its Hessian from the aux the point's local calls
        left."""
        ratio = lam / s
        weight = lam * self.row_scale
        for term, (_, _, aux), block, colscale in zip(
            self.program.objective.norms, pt.norms, self.norm_blocks, self.norm_colscales
        ):
            np.multiply(term.hess_at(aux, term.weight), colscale[:, :, None], out=block)
            block *= colscale[:, None, :]
        for f, aux, block in zip(self.fams, pt.aux, self.fam_blocks):
            grad = self.block(pt.grad, f)
            np.einsum("ml,mk->mlk", grad, grad, out=block)
            block *= ratio[f.rows, None, None]
            if not f.linear:
                block += f.fam.hess_at(aux, weight[f.rows]) * f.colscale[:, :, None] * f.colscale[:, None, :]
        # rhs_x = -r_dual - J' (lam/s r_prim - r_cent/s), in one scatter.
        n, ne = self.n, pt.grad.size
        w = self.weights[: n + ne]
        np.negative(r_dual, out=w[:n])
        np.multiply(pt.grad, (ratio * r_prim - r_cent / s)[self.layout.member], out=w[n:])
        np.negative(w[n:], out=w[n:])
        rhs = np.empty(n + self.p)
        rhs[:n] = np.bincount(self.layout.index[: n + ne], weights=w, minlength=n)
        np.negative(pt.r_eq, out=rhs[n:])
        return rhs

    def regularized(self, reg):
        """``kkt_vals`` with the primal regularization reg and the dual -reg."""
        vals, layout = self.kkt_vals, self.layout
        np.add(self.quad, reg, out=vals[layout.diag])
        vals[layout.dual_diag] = -reg
        return vals

    def band(self, coo_vals):
        """The RCM-ordered KKT matrix in LAPACK band storage, from values in
        COO entry order, as a Fortran-ordered view of ``band_buf``: the buffer
        is zeroed and the values scatter-added into it, so duplicates are
        summed in COO order from 0.0."""
        layout, buf = self.layout, self.band_buf
        buf.fill(0.0)
        np.add.at(buf, layout.coo_band, coo_vals)
        return buf.reshape((layout.band_rows, layout.kkt_shape[0]), order="F")

    def kkt_step(self, coo_vals, rhs):
        """Solve the KKT system with values coo_vals for rhs: one banded LU,
        in place in the solve's band buffer, and one solve with its factors.
        None when a pivot is exactly zero."""
        layout = self.layout
        lu, piv, info = dgbtrf(self.band(coo_vals), layout.kl, layout.ku, overwrite_ab=1)
        if info < 0:
            raise ValueError(f"dgbtrf rejected argument {-info}")
        if info > 0:
            return None
        y, info = dgbtrs(lu, layout.kl, layout.ku, rhs[layout.perm], piv, overwrite_b=1)
        if info:
            raise ValueError(f"dgbtrs rejected argument {-info}")
        step = np.empty_like(y)
        step[layout.perm] = y
        return step

    def jac_dx(self, pt: _Point, dx):
        """J dx at the point pt, from one gather of dx."""
        dx_loc = dx[self.layout.jcols]
        out = np.empty(self.row_scale.size)
        for f in self.fams:
            out[f.rows] = np.einsum("ml,ml->m", self.block(pt.grad, f), self.block(dx_loc, f))
        return out


def solve(
    program: ConvexProgram,
    tol: float = 1e-7,
    x0: np.ndarray | None = None,
    lam0: np.ndarray | None = None,
) -> Solution:
    """Solve the program to KKT residuals <= tol (scaled) in at most _MAX_ITER Newton steps, or report failure.

    ``lam0`` warm-starts the inequality multipliers from physical values,
    such as the ``lam`` of an earlier solve of a program with the same rows.
    """
    n = program.space.dimension
    x_orig = np.zeros(n) if x0 is None else np.asarray(x0, dtype=float).copy()
    if x_orig.shape != (n,):
        raise ValueError(f"x0 has shape {x_orig.shape}; the program has {n} variables, expected ({n},)")
    if not np.all(np.isfinite(x_orig)):
        raise ValueError("x0 has non-finite entries")
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

    obj_scale = max(1.0, float(np.max(np.abs(program.objective.grad(x_orig) * sc), initial=0.0)))
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
    status = "max_iter"
    it = 0

    for it in range(1, _MAX_ITER + 1):
        r_prim = pt.g + s
        gap = float(s @ lam)

        # Convergence on the scaled system. Every max is over nonnegative
        # values, so a program without inequality or equality rows reads 0.
        comp = float(np.max(lam * s, initial=0.0))
        stat = float(np.max(np.abs(r_dual), initial=0.0))
        prim = max(float(np.max(np.abs(r_prim), initial=0.0)), float(np.max(np.abs(pt.r_eq), initial=0.0)))
        # Keep the barrier from collapsing while still infeasible, so that
        # multipliers of violated constraints stay live.
        mu = _SIGMA * max(gap / max(m, 1), 0.1 * prim)
        r_cent = lam * s - mu
        grad_scale = max(1.0, float(np.max(np.abs(pt.obj_grad), initial=0.0)))
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

        # Every block of the KKT matrix but the regularization is fixed per
        # iterate.
        rhs = work.newton_system(pt, lam, s, r_dual, r_prim, r_cent)
        base = _residual_norm([r_dual, r_prim, r_cent, pt.r_eq])

        accepted = False
        for _attempt in range(10):
            reg = delta * max(1.0, obj_scale)
            step = work.kkt_step(work.regularized(reg), rhs)
            if step is None or not np.all(np.isfinite(step)) or np.max(np.abs(step)) > 1e9:
                delta = max(delta * 100.0, 1e-8)
                continue

            dx = step[:n]
            dnu = step[n:]
            ds = -r_prim - work.jac_dx(pt, dx)
            dlam = -(lam / s) * ds - r_cent / s

            # Fraction-to-boundary on s and lam.
            neg_s, neg_l = ds < 0, dlam < 0
            alpha_bound = min(
                1.0,
                _BOUNDARY_FRACTION * float(np.min(-s[neg_s] / ds[neg_s], initial=np.inf)),
                _BOUNDARY_FRACTION * float(np.min(-lam[neg_l] / dlam[neg_l], initial=np.inf)),
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
        delta = max(delta * 0.5, 1e-10)

    x_phys = x * sc
    obj = program.objective.value(x_phys)
    kkt_report = {
        "stationarity": float(np.max(np.abs(r_dual), initial=0.0)),
        "primal_feas": max(float(np.max(pt.g, initial=-np.inf)), float(np.max(np.abs(pt.r_eq), initial=0.0)), 0.0),
        "dual_feas": max(0.0, -float(np.min(lam, initial=np.inf))),
        "complementarity": float(np.max(np.abs(lam * s), initial=0.0)),
    }
    dual_bound = obj - float(s @ lam) - float(np.abs(pt.r_eq) @ np.abs(nu))
    return Solution(
        values=program.space.unpack(x_phys),
        x=x_phys,
        objective=obj,
        status=status,
        kkt=kkt_report,
        dual_bound=dual_bound,
        iterations=it,
        lam=lam * work.row_scale,
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
