"""Independent slow reference for the interior-point solver.

Projected gradient descent on box-constrained problems

    minimize 0.5 x'Qx + c.x + sum_j w_j |A_j x + b_j|   s.t.  lo <= x <= hi

with a backtracked step. The offsets b_j of ``random_box_programs`` keep every
|A_j x + b_j| away from zero on the box, so the objective is smooth and
strongly convex there, and the method converges linearly. Deliberately naive:
shares no code with the production solver. ``eigenbasis_program`` hands the
same problems to the production solver.
"""
from __future__ import annotations

import numpy as np

from fsotraj.convex import ConvexProgram, VariableSpace


def _objective(quad, lin, weights, norm_a, norm_b, x):
    """Objective (B,) and gradient (B, n) of every problem of the batch at x."""
    qx = np.einsum("bij,bj->bi", quad, x)
    u = np.einsum("bjrn,bn->bjr", norm_a, x) + norm_b
    norms = np.sqrt(np.einsum("bjr,bjr->bj", u, u))
    f = 0.5 * np.einsum("bi,bi->b", x, qx) + np.einsum("bi,bi->b", lin, x) + np.einsum("bj,bj->b", weights, norms)
    g = qx + lin + np.einsum("bjrn,bjr->bn", norm_a, weights[:, :, None] * u / norms[:, :, None])
    return f, g


def projected_gradient_batch(quad, lin, weights, norm_a, norm_b, lo, hi, iters):
    """Run projected gradient descent on a batch of problems simultaneously.

    quad: (B, n, n) symmetric positive definite
    lin: (B, n); weights: (B, J); norm_a: (B, J, r, n); norm_b: (B, J, r)
    lo, hi: (B, n) box; iters: step count.

    Each problem keeps its own step length t, starting at 1. A step halves
    t until the projected point x+ = clip(x - t g, lo, hi) passes the
    sufficient-decrease test f(x+) <= f(x) + g.(x+ - x) + |x+ - x|^2 / (2 t);
    the next step starts from that t. Every accepted step lowers f, so the
    last iterate is the best. Returns (objective per problem, iterate per
    problem).
    """
    quad = np.asarray(quad, dtype=float)
    lin = np.asarray(lin, dtype=float)
    x = np.clip(np.zeros_like(lin), lo, hi)
    t = np.ones(len(lin))
    f, g = _objective(quad, lin, weights, norm_a, norm_b, x)
    for _ in range(iters):
        for _halving in range(64):
            x_new = np.clip(x - t[:, None] * g, lo, hi)
            f_new, g_new = _objective(quad, lin, weights, norm_a, norm_b, x_new)
            d = x_new - x
            ok = f_new <= f + np.einsum("bi,bi->b", g, d) + np.einsum("bi,bi->b", d, d) / (2.0 * t)
            if ok.all():
                break
            t = np.where(ok, t, 0.5 * t)
        x, f, g = x_new, f_new, g_new
    return f, x


def random_box_programs(rng, count, n, n_norm_terms=2, mu=1.0):
    """Draw a batch of well-conditioned box QPs with norm terms."""
    basis = rng.normal(size=(count, n, n))
    # Orthogonalize and assign eigenvalues in [mu, mu + 2].
    quad = np.empty((count, n, n))
    for b in range(count):
        q_mat, _ = np.linalg.qr(basis[b])
        eigs = rng.uniform(mu, mu + 2.0, size=n)
        quad[b] = (q_mat * eigs) @ q_mat.T
    lin = rng.normal(scale=1.0, size=(count, n))
    weights = rng.uniform(0.1, 0.5, size=(count, n_norm_terms))
    norm_a = rng.normal(scale=0.3, size=(count, n_norm_terms, 3, n))
    # Offsets large enough that |A x + b| stays bounded away from its kink
    # everywhere on the box (|A x|_2 <= 0.3 sqrt(3 n) |x|_inf sqrt(n) ~ 4.6).
    dirs = rng.normal(size=(count, n_norm_terms, 3))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    norm_b = dirs * rng.uniform(8.0, 10.0, size=(count, n_norm_terms, 1))
    lo = np.full((count, n), -1.0)
    hi = np.full((count, n), 1.0)
    return quad, lin, weights, norm_a, norm_b, lo, hi


def eigenbasis_program(quad, lin, lo, hi, weights=(), norm_a=(), norm_b=()):
    """One box problem of `random_box_programs` as a ConvexProgram in the
    eigenbasis of Q: with Q = V diag(e) V' and x = V y, the quadratic is
    diag(e), the linear term V'c, each norm term |A V y + b|, and the box
    lo <= V y <= hi two families of dense rows. Its optimum is the optimum in
    x."""
    eigs, basis = np.linalg.eigh(quad)
    n = eigs.size
    vs = VariableSpace()
    vs.add("y", n)
    prog = ConvexProgram(vs)
    prog.objective.quad_diag[:] = eigs
    prog.objective.lin[:] = basis.T @ lin
    for w, a, b in zip(weights, norm_a, norm_b):
        prog.add_objective_norm(np.array([w]), np.arange(n)[None, :], (a @ basis)[None], b[None])
    rows = np.tile(np.arange(n), (n, 1))
    prog.add_linear_ineq("box_hi", rows, basis, -hi)
    prog.add_linear_ineq("box_lo", rows, -basis, lo)
    return prog
