"""Assembly of the convex trajectory subproblem around one iterate.

The fractional objective is handled outside (Dinkelbach); this module builds,
for a fixed trade-off weight, the convex program

    minimize  -C_tot + lambda * P_tot

whose constraint set restricts the original mission constraints around the
anchor iterate. Every family is tagged so the census and tightness checks can
address constraints by name.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import capacity_offset, log_bound_params
from .convex import ConvexProgram, VariableSpace
from .errors import DegenerateVelocityError
from .jitter import pointing_weight_matrix, psd_factor, weighted_pointing_norm
from .linearize import anchor_log_gamma
from .mission import Iterate, Scenario, accel_slots


@dataclass
class AnchorData:
    """Per-slot logarithmic-bound parameters at the anchor."""

    gamma_l: np.ndarray
    grad_l: np.ndarray
    delta_l: np.ndarray


def log_anchor(iterate: Iterate, scenario: Scenario) -> AnchorData:
    """Anchor the capacity bound at the iterate's own expected log-SNR."""
    offset = capacity_offset(scenario.link)
    s_norm = np.linalg.norm(iterate.s, axis=1)
    log_gamma = anchor_log_gamma(
        offset, scenario.link.sigma_b, scenario.link.sigma_div, s_norm, iterate.U, iterate.V
    )
    gamma_l = np.exp(log_gamma)
    grads, deltas = log_bound_params(gamma_l)
    return AnchorData(gamma_l=gamma_l, grad_l=grads, delta_l=deltas)


class Subproblem:
    """One assembled convex restriction; the trade-off weight is mutable."""

    def __init__(self, iterate: Iterate, scenario: Scenario):
        n = iterate.n_slots
        craft = scenario.aircraft
        link = scenario.link
        g = craft.g
        delta_t = scenario.delta
        h_alt = scenario.altitude

        speeds = np.linalg.norm(iterate.v[:, :2], axis=1)
        if np.any(speeds == 0.0):
            slot = int(np.argmin(speeds))
            raise DegenerateVelocityError(f"anchor velocity vanishes at slot {slot}")
        # Degenerate-anchor guard: linearize around a point pushed back to the
        # half-minimum-speed sphere; the kinematic values are untouched.
        v_lin = iterate.v[:, :2].copy()
        slow = speeds < craft.v_min / 2.0
        if np.any(slow):
            v_lin[slow] *= (craft.v_min / 2.0) / speeds[slow, None]

        self.iterate = iterate
        self.scenario = scenario
        self.anchor = log_anchor(iterate, scenario)
        self.offset_const = capacity_offset(link)

        vs = VariableSpace()
        vs.add("s", (n, 2), scale=h_alt)
        vs.add("v", (n, 2), scale=max(10.0, float(np.mean(speeds))))
        vs.add("a", (n - 1, 2), scale=craft.a_max)
        vs.add("S", n, scale=h_alt)
        vs.add("U", n, scale=max(1e-4, float(np.mean(iterate.U)) or 1e-4))
        vs.add("V", n, scale=max(1.0, float(np.mean(np.abs(iterate.V)))))
        vs.add("P", n - 1, scale=max(10.0, float(np.mean(iterate.P))))
        vs.add("Q", n - 1, scale=max(1e-3, float(np.mean(iterate.Q))))
        vs.add("R", n - 1, scale=max(10.0, float(np.mean(iterate.R))))
        self.space = vs
        prog = ConvexProgram(vs)
        self.program = prog

        s_idx = vs.indices("s")  # (n, 2)
        v_idx = vs.indices("v")
        a_idx = vs.indices("a")
        S_idx = vs.indices("S")
        U_idx = vs.indices("U")
        V_idx = vs.indices("V")
        P_idx = vs.indices("P")
        Q_idx = vs.indices("Q")
        R_idx = vs.indices("R")

        ks = np.arange(n - 1)

        # Coefficients shared by every slot are passed once; the builder
        # broadcasts each to all members. Only anchor data stays per slot.
        # --- kinematics: velocity, its extension to the last slot, acceleration
        for c in (0, 1):
            prog.add_linear_eq(
                "kin_velocity",
                np.column_stack([v_idx[ks, c], s_idx[ks + 1, c], s_idx[ks, c]]),
                [delta_t, -1.0, 1.0],
                0.0,
            )
        prog.add_linear_eq(
            "kin_velocity_ext", np.column_stack([v_idx[n - 1], v_idx[n - 2]]), [1.0, -1.0], 0.0
        )
        for c in (0, 1):
            prog.add_linear_eq(
                "kin_accel",
                np.column_stack([a_idx[ks, c], v_idx[ks + 1, c], v_idx[ks, c]]),
                [delta_t, -1.0, 1.0],
                0.0,
            )
        prog.add_linear_eq(
            "endpoints",
            np.concatenate([s_idx[0], s_idx[n - 1]])[:, None],
            1.0,
            np.array([scenario.start[0], scenario.start[1], scenario.end[0], scenario.end[1]]),
        )

        # --- speed cap |v_k| <= v_max for k < N (the last slot follows by the
        # velocity extension identity) and the linearized speed floor.
        eye2 = np.eye(2)
        prog.add_soc("speed_cap", v_idx[:-1], eye2, 0.0, 0.0, craft.v_max)
        vp = v_lin[:-1]
        vp_sq = np.einsum("kc,kc->k", vp, vp)
        prog.add_linear_ineq("speed_floor_lin", v_idx[:-1], -2.0 * vp, craft.v_min**2 + vp_sq)

        # --- acceleration cap
        prog.add_soc("accel_cap", a_idx, eye2, 0.0, 0.0, craft.a_max)

        # --- range auxiliary: S_k^2 <= 2 s_p.s - |s_p|^2 (linearized |s|^2)
        sp = iterate.s[:, :2]
        sp_sq = np.einsum("kc,kc->k", sp, sp)
        prog.add_soc(
            "range_lin",
            np.column_stack([S_idx, s_idx]),
            np.eye(1, 3),
            0.0,
            np.column_stack([np.zeros(n), 2.0 * sp]),
            h_alt**2 - sp_sq,
            squared=True,
        )

        # --- jitter penalty: exact second-order-cone form plus the fully
        # linearized (Taylor) form, both anchored at the iterate.
        d_mat = pointing_weight_matrix(scenario.jitter)
        d_root = psd_factor(d_mat).T  # d_root^T d_root = D, so |d_root u|^2 = u^T D u
        a_slot = accel_slots(n)
        cols_jit = np.column_stack([S_idx, U_idx, s_idx, v_idx, a_idx[a_slot]])
        x_anchor6 = np.column_stack([sp, iterate.v[:, :2], iterate.a[a_slot, :2]])
        dj = np.einsum("ij,kjl->kil", d_root, iterate.u_jac)  # (n, 3, 6)
        a_jit = np.zeros((n, 3, 8))
        a_jit[:, :, 2:] = dj
        b_jit = iterate.u_hat @ d_root.T - np.einsum("kil,kl->ki", dj, x_anchor6)
        c_jit = np.zeros((n, 8))
        c_jit[:, 0] = iterate.U
        c_jit[:, 1] = iterate.S
        w, d_u = weighted_pointing_norm(iterate.u_hat, d_mat)
        tau = np.einsum("kil,ki->kl", iterate.u_jac, d_u)  # (n, 6)
        live = w > 1e-15
        tau[live] /= w[live, None]
        tau[~live] = 0.0
        lin_jit = np.column_stack([-iterate.U, -iterate.S, tau])
        off_jit = iterate.S * iterate.U + w - np.einsum("kl,kl->k", tau, x_anchor6)
        prog.add_soc("jitter_cone", cols_jit, a_jit, b_jit, c_jit, -iterate.S * iterate.U)
        prog.add_linear_ineq("jitter_lin", cols_jit, lin_jit, off_jit)

        # --- log-distance epigraph V_k >= log sqrt(|s_xy|^2 + H^2)
        prog.add_log_epigraph(
            "logdist", np.column_stack([s_idx, V_idx]), np.eye(2, 3), 0.0, h_alt, np.full(n, 2)
        )

        # --- flight-power epigraph P_k >= c1 |v_k|^3 + c2 Q_k
        prog.add_cubic_epigraph(
            "power_epi",
            np.column_stack([v_idx[:-1], Q_idx, P_idx]),
            np.eye(2, 4),
            0.0,
            craft.c1,
            [0.0, 0.0, craft.c2, 0.0],
            0.0,
            np.full(n - 1, 3),
        )

        # --- R_k^2 <= 2 v_p.v - |v_p|^2
        prog.add_soc(
            "speed_sq_floor",
            np.column_stack([R_idx, v_idx[:-1]]),
            np.eye(1, 3),
            0.0,
            np.column_stack([np.zeros(n - 1), 2.0 * vp]),
            -vp_sq,
            squared=True,
        )

        # --- drag cone Q_k R_k >= 1 + |a_k|^2 / g^2, as
        # |(2, 2 a_x / g, 2 a_y / g, Q - R)| <= Q + R
        prog.add_soc(
            "drag_cone",
            np.column_stack([Q_idx, R_idx, a_idx]),
            [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 2.0 / g, 0.0], [0.0, 0.0, 0.0, 2.0 / g], [1.0, -1.0, 0.0, 0.0]],
            [2.0, 0.0, 0.0, 0.0],
            [1.0, 1.0, 0.0, 0.0],
            0.0,
        )

        # --- elevation |s_xy| <= H
        prog.add_soc("elevation", s_idx, eye2, 0.0, 0.0, h_alt)

        # --- objective: -C_tot + lambda P_tot, capacity in bits/channel use
        bits = 1.0 / (2.0 * math.log(2.0))
        grad = self.anchor.grad_l * bits
        sigma_div = link.sigma_div
        prog.objective.quad_diag[U_idx] = 2.0 * grad / sigma_div**2
        prog.objective.lin[V_idx] = 2.0 * grad
        prog.add_objective_norm(2.0 * link.sigma_b * grad, s_idx, np.eye(3, 2), [0.0, 0.0, h_alt])
        self._p_cols = P_idx
        self._capacity_const = float(np.sum(grad * self.offset_const + bits * self.anchor.delta_l))
        self._fixed_power = scenario.n_slots * link.transmit_power + scenario.launch_cost / delta_t
        self.tradeoff = None
        self.set_tradeoff(0.0)

    def census(self) -> dict[str, int]:
        """Constraint-family counts in the complexity-analysis convention:
        vector kinematic equalities count once per slot, endpoint components
        individually. Totals 13 N - 3."""
        counts = dict(self.program.family_census())
        for tag in ("kin_velocity", "kin_velocity_ext", "kin_accel"):
            counts[tag] //= 2
        return counts

    # -- objective manipulation for the fractional outer loop ---------------

    def set_tradeoff(self, lam: float) -> None:
        """Point the objective at -C_tot + lam * P_tot."""
        self.tradeoff = float(lam)
        self.program.objective.lin[self._p_cols] = lam
        self.program.objective.const = -self._capacity_const + lam * self._fixed_power

    def anchor_x(self) -> np.ndarray:
        it = self.iterate
        return self.space.pack(
            {
                "s": it.s[:, :2],
                "v": it.v[:, :2],
                "a": it.a[:, :2],
                "S": it.S,
                "U": it.U,
                "V": it.V,
                "P": it.P,
                "Q": it.Q,
                "R": it.R,
            }
        )

    def surrogate_totals(self, values: dict) -> tuple[float, float]:
        """(C_tot, P_tot) of the surrogate at a solution point, bits and watts."""
        link = self.scenario.link
        s_norm = np.sqrt(np.einsum("kc,kc->k", values["s"], values["s"]) + self.scenario.altitude**2)
        log_gamma = anchor_log_gamma(
            self.offset_const, link.sigma_b, link.sigma_div, s_norm, values["U"], values["V"]
        )
        per_slot = self.anchor.grad_l * log_gamma
        c_tot = float(np.sum(per_slot + self.anchor.delta_l)) / (2.0 * math.log(2.0))
        p_tot = float(np.sum(values["P"])) + self._fixed_power
        return c_tot, p_tot

    def solution_iterate(self, values: dict) -> Iterate:
        """Lift a solver solution back into a full iterate.

        Auxiliaries are re-tightened against the exact trajectory (the solver
        honored them only through the affine pointing model), so the next
        anchor is feasible for its own restriction by construction.
        """
        # Looked up at call time, not bound at import, so that a wrapper
        # installed on `mission.tight_iterate` (the benchmark tracer's span)
        # sees this call.
        from .mission import tight_iterate

        n = self.iterate.n_slots
        s = np.column_stack([values["s"], np.full(n, self.scenario.altitude)])
        return tight_iterate(self.scenario, s)
