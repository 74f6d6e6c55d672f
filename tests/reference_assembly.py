"""Per-family reference assembly of the interior-point solver's Newton pieces,
and the checks of an assembled restriction.

Each Newton-piece function rebuilds one piece the way the solver did before
its flat member-entry layout: every family's scaled gradient from its own
``local`` call, scattered one family at a time with ``np.add.at`` from the
base vector, and the KKT values as a list of per-block arrays joined by
``np.concatenate``; ``kkt_pattern`` gives the rows and columns those values
belong to. They are slow, straightforward oracles for
``fsotraj.convex.solver._Work``.

``census`` counts a program's constraint rows per family tag, and
``restriction_tightness`` measures how far each restricted family of a
trajectory restriction is from the original constraint at its anchor. All of
them are used only by the tests.
"""
from __future__ import annotations

import numpy as np

from fsotraj.jitter import pointing_weight_matrix, weighted_pointing_norm
from fsotraj.subproblem import Subproblem

# Families of two rows per slot, one per horizontal component, that the
# complexity analysis counts as one vector constraint.
_VECTOR_TAGS = ("kin_velocity", "kin_velocity_ext", "kin_accel")


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


def census(program) -> dict[str, int]:
    """Constraint rows per family tag in the complexity-analysis convention:
    vector kinematic equalities count once per slot, endpoint components
    individually. A trajectory restriction totals 13 N - 3."""
    counts: dict[str, int] = {}
    for fam in [*program.families, *program.eq_families]:
        counts[fam.tag] = counts.get(fam.tag, 0) + fam.m
    for tag in _VECTOR_TAGS:
        if tag in counts:
            counts[tag] //= 2
    return counts


def restriction_tightness(iterate, scenario) -> dict[str, float]:
    """Max |restriction - original| gap at the anchor for every restricted family.

    At the anchor every linearized/conic restriction must coincide with the
    original nonconvex constraint expression.
    """
    sub = Subproblem(iterate, scenario)
    x = sub.anchor_x()
    report = sub.program.violations(x)
    craft = scenario.aircraft
    speeds = np.linalg.norm(iterate.v[:-1, :2], axis=1)
    gaps = {}
    # speed floor: restriction value must equal v_min^2 - |v|^2 at the anchor.
    gaps["speed_floor_lin"] = float(
        np.max(np.abs(report["speed_floor_lin"] - (craft.v_min**2 - speeds**2)))
    )
    # range linearization: S^2 - (2 s_p.s - |s_p|^2) == S^2 - |s|^2 at anchor.
    s_norm_sq = np.einsum("kc,kc->k", iterate.s, iterate.s)
    gaps["range_lin"] = float(np.max(np.abs(report["range_lin"] - (iterate.S**2 - s_norm_sq))))
    gaps["speed_sq_floor"] = float(
        np.max(np.abs(report["speed_sq_floor"] - (iterate.R**2 - speeds**2)))
    )
    # jitter restrictions: both forms reduce to sqrt(u' D u) - S U at anchor.
    w = weighted_pointing_norm(iterate.u_hat, pointing_weight_matrix(scenario.jitter))[0]
    target = w - iterate.S * iterate.U
    gaps["jitter_cone"] = float(np.max(np.abs(report["jitter_cone"] - target)))
    gaps["jitter_lin"] = float(np.max(np.abs(report["jitter_lin"] - target)))
    # drag cone: exact form is active iff Q R = 1 + |a|^2/g^2 at the anchor.
    acc_sq = np.einsum("kc,kc->k", iterate.a, iterate.a)
    qr_gap = iterate.Q * iterate.R - (1.0 + acc_sq / craft.g**2)
    gaps["drag_cone_anchor_gap"] = float(np.max(np.abs(qr_gap)))
    gaps["drag_cone"] = float(np.max(np.abs(report["drag_cone"])))
    # power and log epigraphs hold with equality at tight auxiliaries.
    gaps["power_epi"] = float(np.max(np.abs(report["power_epi"])))
    gaps["logdist"] = float(np.max(np.abs(report["logdist"])))
    return gaps
