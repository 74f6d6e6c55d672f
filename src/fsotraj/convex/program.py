"""Canonical convex subproblem: variables, tagged constraint families, objective.

Every constraint family is stored in a block layout, vectorized over its
members: each member touches a fixed small set of columns, with dense local
coefficient blocks. That keeps assembly of Jacobians and Hessians a handful
of einsums per family regardless of member count.

Each family evaluates in one pass: ``local(x)`` returns its values, local
gradients and an ``aux`` tuple (such as r = |u| and A'u), and
``hess_at(aux, lam)`` builds the weighted local Hessians at that same point
without recomputing u. The objective's norm terms are blocks of the same
kind (``NormTerm``), so the solver evaluates and assembles every convex term
through these two methods, and every formula is written once.

The objective is affine + 0.5 x'diag(q)x + sum of weighted norm terms.

Constraint kinds and their smooth internal forms (all convex on the domain
the trajectory subproblems generate):

=============  =====================================  =========================
kind           public form                            internal smooth g(x) <= 0
=============  =====================================  =========================
linear         a.x + b <= 0, or a.x + b = 0 for the   same
               rows in ``eq_families``
soc            |A x + b| <= c.x + d                   sqrt(|u|^2 + eps^2) - c.x - d
               (constant rhs uses (|u|^2 - d^2)/2d;
               squared members use |u|^2 - c.x - d)
log_epigraph   t >= log sqrt(|A x + b|^2 + off^2)     0.5 log(|u|^2 + off^2) - t
cubic_epigraph t >= kappa |A x + b|^3 + a.x + const   kappa r^3 + a.x + const - t
=============  =====================================  =========================
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

_NORM_EPS = 1e-10  # smoothing of |u| at the origin; invisible at 1e-8 tolerances


class VariableSpace:
    """Named, shaped, scaled variables flattened to one vector."""

    def __init__(self):
        self._vars: dict[str, tuple[int, tuple[int, ...]]] = {}
        self._scales: list[np.ndarray] = []
        self._size = 0

    def add(self, name: str, shape, scale: float = 1.0) -> None:
        if name in self._vars:
            raise ValueError(f"duplicate variable {name!r}")
        if isinstance(shape, int):
            shape = (shape,)
        count = int(np.prod(shape)) if shape else 1
        self._vars[name] = (self._size, tuple(shape))
        self._scales.append(np.full(count, float(scale)))
        self._size += count

    @property
    def dimension(self) -> int:
        return self._size

    def scales(self) -> np.ndarray:
        if not self._scales:
            return np.ones(0)
        return np.concatenate(self._scales)

    def index(self, name: str, *idx) -> int:
        off, shape = self._vars[name]
        if len(idx) != len(shape):
            raise ValueError(f"{name} has shape {shape}, got index {idx}")
        return off + int(np.ravel_multi_index(idx, shape)) if shape else off

    def indices(self, name: str) -> np.ndarray:
        off, shape = self._vars[name]
        count = int(np.prod(shape)) if shape else 1
        return np.arange(off, off + count).reshape(shape if shape else ())

    def pack(self, values: dict[str, np.ndarray]) -> np.ndarray:
        x = np.zeros(self._size)
        for name, (off, shape) in self._vars.items():
            count = int(np.prod(shape)) if shape else 1
            x[off : off + count] = np.asarray(values[name], dtype=float).ravel()
        return x

    def unpack(self, x: np.ndarray) -> dict[str, np.ndarray]:
        out = {}
        for name, (off, shape) in self._vars.items():
            count = int(np.prod(shape)) if shape else 1
            out[name] = x[off : off + count].reshape(shape).copy() if shape else float(x[off])
        return out


def _as_block(arr, m, *tail):
    out = np.asarray(arr, dtype=float)
    if out.shape == (m, *tail):
        return out
    block = np.empty((m, *tail))  # a C-ordered copy of the broadcast, as np.tile gives
    np.copyto(block, out)
    return block


class _Family:
    """Base: `m` members, each touching the same number of local columns."""

    kind = "abstract"

    def __init__(self, tag: str, cols: np.ndarray):
        self.tag = tag
        self.cols = np.asarray(cols, dtype=np.int64)
        if self.cols.ndim != 2:
            raise ValueError("cols must be (members, local_columns)")
        self.m, self.nloc = self.cols.shape

    def gather(self, x: np.ndarray) -> np.ndarray:
        return x[self.cols]

    # Static COO structure of the per-member dense blocks used for both
    # J^T W J and Hessian scatter: (m, nloc, nloc) -> global (i, j).
    def block_structure(self):
        i = np.repeat(self.cols[:, :, None], self.nloc, axis=2)
        j = np.repeat(self.cols[:, None, :], self.nloc, axis=1)
        return i.ravel(), j.ravel()

    # Subclasses implement one evaluation pass and the Hessian from it:
    #   local(x) -> (values (m,), local gradients (m, nloc), aux): smooth
    #       constraint values (<= 0 feasible), their gradients, and what
    #       hess_at needs
    #   hess_at(aux, lam) -> (m, nloc, nloc) sum-weighted local Hessians at
    #       the point local's aux came from (zero for linear families)
    #   violation(x) -> (m,) reported violation in natural units

    def hess_at(self, aux, lam):
        return np.zeros((self.m, self.nloc, self.nloc))

    def violation(self, x):
        return self.local(x)[0]


class LinearFamily(_Family):
    """Rows a.x + b: inequalities a.x + b <= 0, or equalities a.x + b = 0
    when the program keeps the family in ``eq_families``."""

    kind = "linear"

    def __init__(self, tag, cols, coef, offset):
        super().__init__(tag, cols)
        self.coef = _as_block(coef, self.m, self.nloc)
        self.offset = _as_block(offset, self.m)

    def local(self, x):
        return np.einsum("ml,ml->m", self.coef, self.gather(x)) + self.offset, self.coef, None


class _NormMixin:
    """u = A x_loc + b shared by every family with a norm part."""

    def _init_norm(self, a_loc, b_loc):
        self.a_loc = _as_block(a_loc, self.m, a_loc.shape[-2], self.nloc)
        self.rows = self.a_loc.shape[1]
        self.b_loc = _as_block(b_loc, self.m, self.rows)
        if a_loc.shape[:-2] == (self.m,):
            self.ata = np.einsum("mrl,mrk->mlk", self.a_loc, self.a_loc)
        else:  # one block shared by every member: one A'A, broadcast like it
            a_one = np.broadcast_to(a_loc, (1, self.rows, self.nloc))[0]
            self.ata = _as_block(np.einsum("rl,rk->lk", a_one, a_one), self.m, self.nloc, self.nloc)

    def _u(self, x_loc):
        return np.einsum("mrl,ml->mr", self.a_loc, x_loc) + self.b_loc

    def _norm(self, u):
        return np.sqrt(np.einsum("mr,mr->m", u, u))

    def _smoothed(self, u):
        """(r, A'u) with r = sqrt(|u|^2 + eps^2), the smoothed norm of u."""
        return np.sqrt(np.einsum("mr,mr->m", u, u) + _NORM_EPS**2), np.einsum("mrl,mr->ml", self.a_loc, u)

    def _norm_hess(self, aux, lam):
        """lam-weighted Hessians of r at the point (r, A'u) came from."""
        r, atu = aux
        outer = np.einsum("ml,mk->mlk", atu, atu)
        return lam[:, None, None] * (self.ata / r[:, None, None] - outer / (r**3)[:, None, None])


class SocFamily(_Family, _NormMixin):
    """|A x + b| <= c.x + d; `squared=True` members enforce |A x + b|^2 <= c.x + d."""

    kind = "soc"

    def __init__(self, tag, cols, a_loc, b_loc, c_loc, d, squared=False):
        super().__init__(tag, cols)
        self._init_norm(np.asarray(a_loc, dtype=float), np.asarray(b_loc, dtype=float))
        self.c_loc = _as_block(c_loc, self.m, self.nloc)
        self.d = _as_block(d, self.m)
        self.squared = bool(squared)
        self.const_rhs = not self.squared and not np.any(self.c_loc)

    def _rhs(self, x_loc):
        return np.einsum("ml,ml->m", self.c_loc, x_loc) + self.d

    def local(self, x):
        x_loc = self.gather(x)
        u = self._u(x_loc)
        if not (self.squared or self.const_rhs):
            r, atu = self._smoothed(u)
            return r - self._rhs(x_loc), atu / r[:, None] - self.c_loc, (r, atu)
        atu = np.einsum("mrl,mr->ml", self.a_loc, u)
        if self.squared:
            return np.einsum("mr,mr->m", u, u) - self._rhs(x_loc), 2.0 * atu - self.c_loc, None
        # (|u|^2 - d^2) / (2d): same boundary and gradient scale as the
        # norm form, but smooth through u = 0.
        return (np.einsum("mr,mr->m", u, u) - self.d**2) / (2.0 * self.d), atu / self.d[:, None], None

    def hess_at(self, aux, lam):
        if self.squared:
            return 2.0 * lam[:, None, None] * self.ata
        if self.const_rhs:
            return (lam / self.d)[:, None, None] * self.ata
        return self._norm_hess(aux, lam)

    def violation(self, x):
        x_loc = self.gather(x)
        u = self._u(x_loc)
        if self.squared:
            return np.einsum("mr,mr->m", u, u) - self._rhs(x_loc)
        return self._norm(u) - (self.d if self.const_rhs else self._rhs(x_loc))


class LogEpigraphFamily(_Family, _NormMixin):
    """t >= 0.5 log(|A x + b|^2 + off^2).

    Convex whenever |u| <= off (the elevation region); outside it the negative
    radial curvature is clamped to zero so Newton directions stay descent.
    """

    kind = "log_epigraph"

    def __init__(self, tag, cols, a_loc, b_loc, offset, t_pos):
        super().__init__(tag, cols)
        self._init_norm(np.asarray(a_loc, dtype=float), np.asarray(b_loc, dtype=float))
        self.offset = _as_block(offset, self.m)
        self.t_pos = np.asarray(t_pos, dtype=np.int64)  # local column of t

    def local(self, x):
        x_loc = self.gather(x)
        u = self._u(x_loc)
        u_sq = np.einsum("mr,mr->m", u, u)
        w = u_sq + self.offset**2
        t = x_loc[np.arange(self.m), self.t_pos]
        atu = np.einsum("mrl,mr->ml", self.a_loc, u)
        g = atu / w[:, None]
        g[np.arange(self.m), self.t_pos] -= 1.0
        return 0.5 * np.log(w) - t, g, (u_sq, w, atu)

    def hess_at(self, aux, lam):
        u_sq, w, atu = aux
        # Radial coefficient 2/w^2 clamped to 1/(w |u|^2) where curvature would go negative.
        coef = np.where(u_sq <= self.offset**2, 2.0 / w**2, 1.0 / np.maximum(w * u_sq, 1e-300))
        outer = np.einsum("ml,mk->mlk", atu, atu)
        h = self.ata / w[:, None, None] - coef[:, None, None] * outer
        return lam[:, None, None] * h


class CubicEpigraphFamily(_Family, _NormMixin):
    """t >= kappa |A x + b|^3 + a.x + const."""

    kind = "cubic_epigraph"

    def __init__(self, tag, cols, a_loc, b_loc, kappa, lin_loc, const, t_pos):
        super().__init__(tag, cols)
        self._init_norm(np.asarray(a_loc, dtype=float), np.asarray(b_loc, dtype=float))
        self.kappa = _as_block(kappa, self.m)
        self.lin_loc = _as_block(lin_loc, self.m, self.nloc)
        self.const = _as_block(const, self.m)
        self.t_pos = np.asarray(t_pos, dtype=np.int64)

    def local(self, x):
        x_loc = self.gather(x)
        r, atu = self._smoothed(self._u(x_loc))
        lin = np.einsum("ml,ml->m", self.lin_loc, x_loc)
        t = x_loc[np.arange(self.m), self.t_pos]
        g = 3.0 * self.kappa[:, None] * r[:, None] * atu + self.lin_loc
        g[np.arange(self.m), self.t_pos] -= 1.0
        return self.kappa * r**3 + lin + self.const - t, g, (r, atu)

    def hess_at(self, aux, lam):
        r, atu = aux
        outer = np.einsum("ml,mk->mlk", atu, atu)
        coef = 3.0 * lam * self.kappa
        return coef[:, None, None] * (r[:, None, None] * self.ata + outer / r[:, None, None])


class NormTerm(_Family, _NormMixin):
    """Objective term sum_m weight_m |A x_loc + b|, evaluated like a family:
    ``local`` gives the smoothed norms and their gradients, unweighted, and
    ``hess_at(aux, weight)`` the weighted Hessians."""

    kind = "norm_term"

    def __init__(self, tag, cols, weight, a_loc, b_loc):
        super().__init__(tag, cols)
        self._init_norm(np.asarray(a_loc, dtype=float), np.asarray(b_loc, dtype=float))
        self.weight = _as_block(weight, self.m)

    def local(self, x):
        r, atu = self._smoothed(self._u(self.gather(x)))
        return r, atu / r[:, None], (r, atu)

    def hess_at(self, aux, lam):
        return self._norm_hess(aux, lam)


@dataclass
class Objective:
    """const + lin.x + 0.5 x'diag(quad_diag)x + sum of weighted norm terms."""

    lin: np.ndarray
    quad_diag: np.ndarray
    const: float = 0.0
    norms: list[NormTerm] = field(default_factory=list)

    def value(self, x):
        out = self.const + float(self.lin @ x) + 0.5 * float((self.quad_diag * x) @ x)
        for term in self.norms:
            out += float(term.weight @ term.local(x)[0])
        return out

    def grad(self, x, norms=None):
        """Gradient at x; a caller that already has each norm term's ``local``
        result at x passes them as ``norms``."""
        if norms is None:
            norms = [term.local(x) for term in self.norms]
        # One bincount over [lin + q x, every term's weighted gradient
        # entries]: it adds in input order from 0.0, so each entry gets the
        # bits of adding the terms in turn to lin + q x.
        index = np.concatenate([np.arange(x.size), *(term.cols.ravel() for term in self.norms)])
        weights = [self.lin + self.quad_diag * x]
        weights += [(term.weight[:, None] * grad).ravel() for term, (_, grad, _) in zip(self.norms, norms)]
        return np.bincount(index, weights=np.concatenate(weights), minlength=x.size)


class ConvexProgram:
    """A tagged collection of convex constraint families plus a convex objective."""

    def __init__(self, space: VariableSpace):
        self.space = space
        self.families: list[_Family] = []
        self.eq_families: list[LinearFamily] = []
        n = space.dimension
        self.objective = Objective(lin=np.zeros(n), quad_diag=np.zeros(n))

    # -- constraint builders (all batched over members) --------------------

    def add_linear_eq(self, tag, cols, coef, rhs):
        self.eq_families.append(LinearFamily(tag, cols, coef, -np.asarray(rhs, dtype=float)))

    def add_linear_ineq(self, tag, cols, coef, offset):
        self.families.append(LinearFamily(tag, cols, coef, offset))

    def add_soc(self, tag, cols, a_loc, b_loc, c_loc, d, squared=False):
        self.families.append(SocFamily(tag, cols, a_loc, b_loc, c_loc, d, squared=squared))

    def add_log_epigraph(self, tag, cols, a_loc, b_loc, offset, t_pos):
        self.families.append(LogEpigraphFamily(tag, cols, a_loc, b_loc, offset, t_pos))

    def add_cubic_epigraph(self, tag, cols, a_loc, b_loc, kappa, lin_loc, const, t_pos):
        self.families.append(
            CubicEpigraphFamily(tag, cols, a_loc, b_loc, kappa, lin_loc, const, t_pos)
        )

    def add_objective_norm(self, weight, cols, a_loc, b_loc):
        self.objective.norms.append(NormTerm("objective_norm", cols, weight, a_loc, b_loc))

    # -- bookkeeping --------------------------------------------------------

    @property
    def n_ineq(self) -> int:
        return sum(f.m for f in self.families)

    @property
    def n_eq(self) -> int:
        return sum(f.m for f in self.eq_families)

    def family_census(self) -> dict[str, int]:
        out: dict[str, int] = {}
        for fam in [*self.families, *self.eq_families]:
            out[fam.tag] = out.get(fam.tag, 0) + fam.m
        return out

    def violations(self, x: np.ndarray) -> dict[str, np.ndarray]:
        """Signed violation per tag (<= 0 everywhere means feasible); an
        equality row's is |a.x + b|."""
        out: dict[str, np.ndarray] = {}
        rows = [(f, f.violation(x)) for f in self.families]
        rows += [(f, np.abs(f.violation(x))) for f in self.eq_families]
        for fam, v in rows:
            out[fam.tag] = np.concatenate([out[fam.tag], v]) if fam.tag in out else v
        return out


@dataclass
class FeasibilityReport:
    """check_feasible output: per-tag signed violations."""

    per_tag: dict[str, np.ndarray]
    tol: float

    @property
    def max_violation(self) -> float:
        worst = 0.0
        for v in self.per_tag.values():
            if v.size:
                worst = max(worst, float(np.max(v)))
        return worst

    @property
    def feasible(self) -> bool:
        return self.max_violation <= self.tol

    def worst_tags(self, k: int = 5) -> list[tuple[str, float]]:
        pairs = [(tag, float(np.max(v))) for tag, v in self.per_tag.items() if v.size]
        return sorted(pairs, key=lambda p: -p[1])[:k]


def check_feasible(program: ConvexProgram, x: np.ndarray, tol: float = 1e-8) -> FeasibilityReport:
    x = np.asarray(x, dtype=float)
    if x.shape != (program.space.dimension,):
        raise ValueError(f"point has dimension {x.shape}, expected {program.space.dimension}")
    return FeasibilityReport(per_tag=program.violations(x), tol=tol)
