"""First-order model of the pointing vector along a level-flight trajectory.

With pitch fixed at zero, the body-frame pointing vector is a function of
position, velocity, and acceleration only (yaw follows the velocity, roll
follows the lateral acceleration). This module evaluates that function at the
anchor states of every slot at once and assembles the Jacobians with respect
to (s_x, s_y, v_x, v_y, a_x, a_y), the ingredients of the convex restriction
of the jitter penalty.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateVelocityError, slot_suffix


class PointingAnchor(NamedTuple):
    u_hat: np.ndarray  # (..., 3)
    jac: np.ndarray  # (..., 3, 6) d u_hat / d (s_x, s_y, v_x, v_y, a_x, a_y)


def delta_u_coefficients(s, v, a, g: float) -> PointingAnchor:
    """Pointing vectors and their 3x6 Jacobians at level-flight anchor states.

    ``s``, ``v`` and ``a`` are one state of shape (3,) or one state per slot,
    shape (N, 3); the results carry the same leading slot axis. The altitude
    coordinate is constant, so no s_z column appears.
    """
    s = np.asarray(s, dtype=float)
    v = np.asarray(v, dtype=float)
    a = np.asarray(a, dtype=float)
    sx, sy, sz = s[..., 0], s[..., 1], s[..., 2]
    vx, vy = v[..., 0], v[..., 1]
    ax, ay = a[..., 0], a[..., 1]

    n = np.hypot(vx, vy)
    if np.any(n == 0.0):
        raise DegenerateVelocityError(f"anchor velocity is zero{slot_suffix(n == 0.0)}; heading undefined")

    ct, st = vx / n, vy / n
    a0 = (vy * ax - vx * ay) / (n * g)
    den = np.sqrt(1.0 + a0 * a0)
    sphi, cphi = a0 / den, 1.0 / den
    zero = np.zeros_like(n)

    u_hat = -np.stack(
        [
            sx * ct + sy * st,
            -sx * cphi * st + sy * cphi * ct + sz * sphi,
            sx * sphi * st - sy * sphi * ct + sz * cphi,
        ],
        axis=-1,
    )

    # Partials of u_hat w.r.t. the four trig quantities, components last.
    du_dct = np.stack([-sx, -sy * cphi, sy * sphi], axis=-1)
    du_dst = np.stack([-sy, sx * cphi, -sx * sphi], axis=-1)
    du_dcphi = np.stack([zero, sx * st - sy * ct, -sz], axis=-1)
    du_dsphi = np.stack([zero, -sz, -sx * st + sy * ct], axis=-1)

    n3 = n**3
    dct = np.stack([vy * vy / n3, -vx * vy / n3], axis=-1)  # d cos(theta) / d (vx, vy)
    dst = np.stack([-vx * vy / n3, vx * vx / n3], axis=-1)

    da0_dv = np.stack([-ay / (n * g) - a0 * vx / (n * n), ax / (n * g) - a0 * vy / (n * n)], axis=-1)
    da0_da = np.stack([vy / (n * g), -vx / (n * g)], axis=-1)
    dsphi_da0 = den**-3
    dcphi_da0 = -a0 * den**-3

    du_da0 = du_dcphi * dcphi_da0[..., None] + du_dsphi * dsphi_da0[..., None]

    def outer(x, y):  # (..., 3) x (..., 2) -> (..., 3, 2)
        return x[..., :, None] * y[..., None, :]

    du_ds = -np.stack(
        [
            np.stack([ct, -cphi * st, sphi * st], axis=-1),  # d/d s_x
            np.stack([st, cphi * ct, -sphi * ct], axis=-1),  # d/d s_y
        ],
        axis=-1,
    )
    du_dv = outer(du_dct, dct) + outer(du_dst, dst) + outer(du_da0, da0_dv)
    jac = np.concatenate([du_ds, du_dv, outer(du_da0, da0_da)], axis=-1)
    return PointingAnchor(u_hat=u_hat, jac=jac)


def anchor_log_gamma(offset: float, sigma_b: float, sigma_div: float, s_norm, u_check, v_check):
    """E[log Gamma] expressed through the auxiliary quantities of one iterate.

    offset - 2 sigma_b |s| - U^2 / sigma_div^2 - 2 V, vectorized over slots.
    At tight auxiliaries this coincides with the channel closed form.
    """
    return (
        offset
        - 2.0 * sigma_b * np.asarray(s_norm, dtype=float)
        - np.asarray(u_check, dtype=float) ** 2 / sigma_div**2
        - 2.0 * np.asarray(v_check, dtype=float)
    )
