"""Independent slow reference for the interior-point solver.

Projected subgradient descent on box-constrained problems

    minimize 0.5 x'Qx + c.x + sum_j w_j |A_j x + b_j|   s.t.  lo <= x <= hi

with the classic strongly-convex step 2 / (mu (t + 2)) and best-iterate
tracking. Deliberately naive: shares no code with the production solver.
``eigenbasis_program`` hands the same problems to the production solver.
"""
from __future__ import annotations

import numpy as np

from fsotraj.convex import ConvexProgram, VariableSpace


def projected_subgradient_batch(quad, lin, weights, norm_a, norm_b, lo, hi, mu, iters):
    """Run subgradient descent on a batch of problems simultaneously.

    quad: (B, n, n) symmetric PSD with min eigenvalue >= mu
    lin: (B, n); weights: (B, J); norm_a: (B, J, r, n); norm_b: (B, J, r)
    lo, hi: (B, n) box; iters: iteration count.
    Returns (best objective per problem, best iterate per problem).
    """
    quad = np.asarray(quad, dtype=float)
    lin = np.asarray(lin, dtype=float)
    b_count, n = lin.shape
    x = np.clip(np.zeros((b_count, n)), lo, hi)
    best_f = np.full(b_count, np.inf)
    best_x = x.copy()

    for t in range(1, iters + 1):
        qx = np.einsum("bij,bj->bi", quad, x)
        u = np.einsum("bjrn,bn->bjr", norm_a, x) + norm_b
        norms = np.sqrt(np.einsum("bjr,bjr->bj", u, u))
        f = (
            0.5 * np.einsum("bi,bi->b", x, qx)
            + np.einsum("bi,bi->b", lin, x)
            + np.einsum("bj,bj->b", weights, norms)
        )
        improved = f < best_f
        best_f = np.where(improved, f, best_f)
        best_x = np.where(improved[:, None], x, best_x)

        # Subgradient of the norm terms: A' u/|u| (any member of the
        # subdifferential works at |u| = 0, so the zero vector is fine).
        safe = np.maximum(norms, 1e-300)
        g_norm = np.einsum("bjrn,bjr->bn", norm_a, weights[:, :, None] * u / safe[:, :, None])
        g = qx + lin + g_norm
        step = 2.0 / (mu * (t + 2.0))
        x = np.clip(x - step * g, lo, hi)

    return best_f, best_x


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
