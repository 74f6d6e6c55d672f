"""Per-family reference assembly of the interior-point solver's Newton pieces.

Each function rebuilds one piece the way the solver did before its flat
member-entry layout: every family's scaled gradient from its own ``local``
call, scattered one family at a time with ``np.add.at`` from the base vector,
and the KKT values as a list of per-block arrays joined by ``np.concatenate``;
``kkt_pattern`` gives the rows and columns those values belong to. They are
slow, straightforward oracles for ``fsotraj.convex.solver._Work``
and are used only by the tests.
"""
from __future__ import annotations

import numpy as np


def family_gradients(rows, x):
    """Per family: the row- and column-scaled local gradients at x."""
    return [f.fam.local(x)[1] * f.colscale * f.rho[:, None] for f in rows]


def objective_gradient(objective, x):
    """lin + q x plus each norm term's weighted gradient, added term by term."""
    g = objective.lin + objective.quad_diag * x
    for term in objective.norms:
        np.add.at(g, term.cols.ravel(), (term.weight[:, None] * term.local(x)[1]).ravel())
    return g


def dual_residual(work, x, obj_grad, lam, nu):
    """obj_grad + J' lam + E' nu, one family at a time."""
    r = obj_grad.copy()
    for rows, mult in ((work.fams, lam), (work.eqs, nu)):
        for f, grad in zip(rows, family_gradients(rows, x)):
            np.add.at(r, f.fam.cols.ravel(), (grad * mult[f.rows, None]).ravel())
    return r


def newton_rhs(work, x, r_dual, r_eq, lam, s, r_prim, r_cent):
    """[-r_dual - J' (lam/s r_prim - r_cent/s), -r_eq], one family at a time."""
    rhs_x = -r_dual
    for f, grad in zip(work.fams, family_gradients(work.fams, x)):
        lam_f, s_f = lam[f.rows], s[f.rows]
        coeff = (lam_f / s_f) * r_prim[f.rows] - r_cent[f.rows] / s_f
        np.add.at(rhs_x, f.fam.cols.ravel(), -(grad * coeff[:, None]).ravel())
    return np.concatenate([rhs_x, -r_eq])


def _scale_columns(hess, colscale):
    return hess * colscale[:, :, None] * colscale[:, None, :]


def kkt_blocks(work, x, lam, s):
    """The KKT values between the diagonal and the dual regularization: the
    norm terms' and families' Hessian blocks, then E and E'."""
    objective = work.program.objective
    blocks = [
        _scale_columns(term.hess_at(term.local(x)[2], term.weight), work.sc[term.cols]).ravel()
        for term in objective.norms
    ]
    for f, grad in zip(work.fams, family_gradients(work.fams, x)):
        lam_f, s_f = lam[f.rows], s[f.rows]
        outer = np.einsum("ml,mk->mlk", grad, grad)
        if f.linear:
            hess = (lam_f / s_f)[:, None, None] * outer
        else:
            hess = _scale_columns(f.fam.hess_at(f.fam.local(x)[2], lam_f * f.rho), f.colscale)
            hess += (lam_f / s_f)[:, None, None] * outer
        blocks.append(hess.ravel())
    eq = [grad.ravel() for grad in family_gradients(work.eqs, x)]
    return np.concatenate([np.zeros(0), *blocks, *eq, *eq])


def kkt_pattern(program):
    """The KKT matrix's COO rows and columns in value-buffer order: the
    diagonal, each objective norm term's and inequality family's
    ``block_structure``, E (row n + i of equality row i), E' and the dual
    diagonal."""
    n, p = program.space.dimension, program.n_eq
    blocks = [(np.arange(n), np.arange(n))]
    blocks += [block.block_structure() for block in [*program.objective.norms, *program.families]]
    e_rows, e_cols, row = [], [], n
    for fam in program.eq_families:
        e_rows.append(np.repeat(np.arange(row, row + fam.m), fam.nloc))
        e_cols.append(fam.cols.ravel())
        row += fam.m
    e_rows, e_cols = np.concatenate([np.zeros(0, int), *e_rows]), np.concatenate([np.zeros(0, int), *e_cols])
    blocks += [(e_rows, e_cols), (e_cols, e_rows), (np.arange(n, n + p), np.arange(n, n + p))]
    return tuple(np.concatenate(part) for part in zip(*blocks))
