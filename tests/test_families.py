"""The fused family evaluation reproduces the separate formulas bit for bit.

Each constraint family and objective norm term evaluates once per point:
``local(x)`` gives values,
local gradients and an ``aux`` tuple, and ``hess_at(aux, lam)`` the weighted
local Hessians. The oracles below are the three separate formulas each family
used to evaluate (u = A x + b recomputed in every one); the fused path must
give the same bits, not merely close numbers, because the solver's iterates
and the final plans depend on every rounding.
"""
import numpy as np
import pytest

from fsotraj.convex.program import (
    _NORM_EPS,
    ConvexProgram,
    CubicEpigraphFamily,
    LinearFamily,
    LogEpigraphFamily,
    NormTerm,
    SocFamily,
    VariableSpace,
)

M, NLOC, ROWS = 40, 5, 3


def oracle_u(fam, x):
    return np.einsum("mrl,ml->mr", fam.a_loc, x[fam.cols]) + fam.b_loc


def oracle_soc(fam, x, lam):
    u = oracle_u(fam, x)
    rhs = np.einsum("ml,ml->m", fam.c_loc, x[fam.cols]) + fam.d
    if fam.squared:
        vals = np.einsum("mr,mr->m", u, u) - rhs
    elif fam.const_rhs:
        vals = (np.einsum("mr,mr->m", u, u) - fam.d**2) / (2.0 * fam.d)
    else:
        vals = np.sqrt(np.einsum("mr,mr->m", u, u) + _NORM_EPS**2) - rhs
    u = oracle_u(fam, x)
    atu = np.einsum("mrl,mr->ml", fam.a_loc, u)
    if fam.squared:
        grad = 2.0 * atu - fam.c_loc
    elif fam.const_rhs:
        grad = atu / fam.d[:, None]
    else:
        r = np.sqrt(np.einsum("mr,mr->m", u, u) + _NORM_EPS**2)
        grad = atu / r[:, None] - fam.c_loc
    if fam.squared:
        hess = 2.0 * lam[:, None, None] * fam.ata
    elif fam.const_rhs:
        hess = (lam / fam.d)[:, None, None] * fam.ata
    else:
        u = oracle_u(fam, x)
        r = np.sqrt(np.einsum("mr,mr->m", u, u) + _NORM_EPS**2)
        atu = np.einsum("mrl,mr->ml", fam.a_loc, u)
        outer = np.einsum("ml,mk->mlk", atu, atu)
        hess = lam[:, None, None] * (fam.ata / r[:, None, None] - outer / (r**3)[:, None, None])
    return vals, grad, hess


def oracle_log(fam, x, lam):
    u = oracle_u(fam, x)
    w = np.einsum("mr,mr->m", u, u) + fam.offset**2
    vals = 0.5 * np.log(w) - x[fam.cols][np.arange(fam.m), fam.t_pos]
    grad = np.einsum("mrl,mr->ml", fam.a_loc, u) / w[:, None]
    grad[np.arange(fam.m), fam.t_pos] -= 1.0
    atu = np.einsum("mrl,mr->ml", fam.a_loc, u)
    u_sq = np.einsum("mr,mr->m", u, u)
    coef = np.where(u_sq <= fam.offset**2, 2.0 / w**2, 1.0 / np.maximum(w * u_sq, 1e-300))
    outer = np.einsum("ml,mk->mlk", atu, atu)
    hess = lam[:, None, None] * (fam.ata / w[:, None, None] - coef[:, None, None] * outer)
    return vals, grad, hess


def oracle_cubic(fam, x, lam):
    u = oracle_u(fam, x)
    r = np.sqrt(np.einsum("mr,mr->m", u, u) + _NORM_EPS**2)
    lin = np.einsum("ml,ml->m", fam.lin_loc, x[fam.cols])
    vals = fam.kappa * r**3 + lin + fam.const - x[fam.cols][np.arange(fam.m), fam.t_pos]
    atu = np.einsum("mrl,mr->ml", fam.a_loc, u)
    grad = 3.0 * fam.kappa[:, None] * r[:, None] * atu + fam.lin_loc
    grad[np.arange(fam.m), fam.t_pos] -= 1.0
    outer = np.einsum("ml,mk->mlk", atu, atu)
    coef = 3.0 * lam * fam.kappa
    hess = coef[:, None, None] * (r[:, None, None] * fam.ata + outer / r[:, None, None])
    return vals, grad, hess


def oracle_norm(fam, x, lam):
    u = oracle_u(fam, x)
    r = np.sqrt(np.einsum("mr,mr->m", u, u) + _NORM_EPS**2)
    atu = np.einsum("mrl,mr->ml", fam.a_loc, u)
    outer = np.einsum("ml,mk->mlk", atu, atu)
    return r, atu / r[:, None], lam[:, None, None] * (fam.ata / r[:, None, None] - outer / (r**3)[:, None, None])


def oracle_linear(fam, x, lam):
    vals = np.einsum("ml,ml->m", fam.coef, x[fam.cols]) + fam.offset
    return vals, fam.coef, np.zeros((fam.m, fam.nloc, fam.nloc))


def equality_family(n, cols, coef, rhs):
    """The family `add_linear_eq` builds for a.x = rhs, with its oracle
    a.x - rhs."""
    space = VariableSpace()
    space.add("x", n)
    program = ConvexProgram(space)
    program.add_linear_eq("eq", cols, coef, rhs)

    def oracle(fam, x, lam):
        vals = np.einsum("ml,ml->m", fam.coef, x[fam.cols]) - rhs
        return vals, fam.coef, np.zeros((fam.m, fam.nloc, fam.nloc))

    return program.eq_families[0], oracle


def random_cols(rng, n):
    return np.stack([rng.choice(n, NLOC, replace=False) for _ in range(M)])


def families(rng, n):
    """One family of each kind and form, with its oracle."""
    a = rng.normal(size=(M, ROWS, NLOC))
    b = rng.normal(size=(M, ROWS))
    c = rng.normal(size=(M, NLOC))
    d = rng.uniform(1.0, 3.0, M)
    t_pos = rng.integers(0, NLOC, M)
    # |u| is about 2 here, so offsets on [0.5, 4] put members on both
    # sides of the log-epigraph's convexity clamp.
    offset = rng.uniform(0.5, 4.0, M)
    return [
        (SocFamily("soc", random_cols(rng, n), a, b, c, d), oracle_soc),
        (SocFamily("soc_sq", random_cols(rng, n), a, b, c, d, squared=True), oracle_soc),
        (SocFamily("soc_const", random_cols(rng, n), a, b, np.zeros((M, NLOC)), d), oracle_soc),
        (LogEpigraphFamily("log", random_cols(rng, n), a, b, offset, t_pos), oracle_log),
        (CubicEpigraphFamily("cube", random_cols(rng, n), a, b, rng.uniform(0.1, 2.0, M), c, d, t_pos), oracle_cubic),
        (LinearFamily("lin", random_cols(rng, n), c, d), oracle_linear),
        equality_family(n, random_cols(rng, n), c, d),
        (NormTerm("norm", random_cols(rng, n), d, a, b), oracle_norm),
    ]


@pytest.mark.parametrize(
    "index", range(8), ids=["soc", "soc_squared", "soc_const_rhs", "log", "cubic", "lin", "eq", "norm_term"]
)
def test_fused_evaluation_equals_separate_formulas(rng, index):
    n = 30
    fam, oracle = families(rng, n)[index]
    if fam.kind == "soc":
        forms = {"soc": (False, False), "soc_sq": (True, False), "soc_const": (False, True)}
        assert (fam.squared, fam.const_rhs) == forms[fam.tag]
    inside_clamp = []
    for _ in range(5):
        x = rng.normal(size=n)
        lam = rng.uniform(0.1, 2.0, M)
        vals, grad, aux = fam.local(x)
        ref_vals, ref_grad, ref_hess = oracle(fam, x, lam)
        assert np.array_equal(vals, ref_vals)
        assert np.array_equal(grad, ref_grad)
        assert np.array_equal(fam.hess_at(aux, lam), ref_hess)
        if fam.kind == "log_epigraph":
            u = oracle_u(fam, x)
            inside_clamp.extend(np.einsum("mr,mr->m", u, u) <= fam.offset**2)
    if fam.kind == "log_epigraph":
        assert 0 < sum(inside_clamp) < len(inside_clamp)  # both branches of the clamp

