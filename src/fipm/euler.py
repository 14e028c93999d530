"""1D Euler equations: state maps, fluxes, and the exact Riemann solution.

Conserved variables are u = (rho, m, E_t) with momentum m = rho*v and total
energy E_t = p/(gamma-1) + rho*v^2/2.  A state is admissible when density and
pressure are strictly positive.  All maps broadcast over leading axes; the
component axis is last.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import gauss_rule
from .errors import VacuumError

GAMMA_DEFAULT = 1.4
#: star-pressure Newton iteration: iteration cap and relative step tolerance
RIEMANN_MAX_ITER = 100
RIEMANN_TOL = 1e-12
#: Gauss nodes of the reference statistics' average over the uniform input
REFERENCE_NODES = 100


def pressure(u, gamma=GAMMA_DEFAULT):
    """p = (gamma - 1) * (E_t - m^2 / (2 rho)) for u = (..., 3)."""
    u = np.asarray(u, dtype=float)
    return (gamma - 1.0) * (u[..., 2] - 0.5 * u[..., 1] ** 2 / u[..., 0])


def admissible(u, gamma=GAMMA_DEFAULT):
    """Elementwise check rho > 0 and p > 0; returns a boolean array."""
    u = np.asarray(u, dtype=float)
    rho = u[..., 0]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        e_int = u[..., 2] - 0.5 * u[..., 1] ** 2 / rho
    return (rho > 0) & (e_int > 0) & np.isfinite(rho) & np.isfinite(e_int)


def conserved_from_primitive(w, gamma=GAMMA_DEFAULT):
    """(rho, v, p) -> (rho, rho v, p/(gamma-1) + rho v^2/2)."""
    w = np.asarray(w, dtype=float)
    rho, v, p = w[..., 0], w[..., 1], w[..., 2]
    return np.stack([rho, rho * v, p / (gamma - 1.0) + 0.5 * rho * v**2], axis=-1)


def physical_flux(u, gamma=GAMMA_DEFAULT):
    """Euler flux f(u) = (m, m^2/rho + p, v (E_t + p))."""
    u = np.asarray(u, dtype=float)
    rho, m, e_t = u[..., 0], u[..., 1], u[..., 2]
    p = pressure(u, gamma)
    v = m / rho
    return np.stack([m, m * v + p, v * (e_t + p)], axis=-1)


def max_wavespeed(u, gamma=GAMMA_DEFAULT):
    """|v| + c with sound speed c = sqrt(gamma p / rho)."""
    u = np.asarray(u, dtype=float)
    rho = u[..., 0]
    return np.abs(u[..., 1] / rho) + np.sqrt(gamma * pressure(u, gamma) / rho)


# ---------------------------------------------------------------------------
# exact Riemann solution
# ---------------------------------------------------------------------------


def _pressure_function(p, rho_k, p_k, c_k, gamma):
    """f_K(p) and its derivative for one side of the Riemann problem."""
    a_k = 2.0 / ((gamma + 1.0) * rho_k)
    b_k = (gamma - 1.0) / (gamma + 1.0) * p_k
    if p > p_k:  # shock
        root = np.sqrt(a_k / (p + b_k))
        f = (p - p_k) * root
        df = root * (1.0 - 0.5 * (p - p_k) / (b_k + p))
    else:  # rarefaction
        z = (gamma - 1.0) / (2.0 * gamma)
        f = 2.0 * c_k / (gamma - 1.0) * ((p / p_k) ** z - 1.0)
        df = (p / p_k) ** (-(gamma + 1.0) / (2.0 * gamma)) / (rho_k * c_k)
    return f, df


@dataclass(frozen=True)
class RiemannSolution:
    """Self-similar solution of a single Riemann problem; sampled at s = x/t."""

    prim_l: np.ndarray
    prim_r: np.ndarray
    gamma: float
    p_star: float
    v_star: float

    def sample(self, s):
        """Primitive state (rho, v, p) at similarity coordinates s = x/t."""
        s_in = np.asarray(s, dtype=float)
        s = np.atleast_1d(s_in)
        rho = np.empty_like(s)
        v = np.empty_like(s)
        p = np.empty_like(s)
        gamma = self.gamma
        beta = (gamma - 1.0) / (gamma + 1.0)

        for side in ("left", "right"):
            if side == "left":
                rho_k, v_k, p_k = self.prim_l
                sign = 1.0
                region = s <= self.v_star
            else:
                rho_k, v_k, p_k = self.prim_r
                sign = -1.0
                region = s > self.v_star
            if not np.any(region):
                continue
            c_k = np.sqrt(gamma * p_k / rho_k)
            ratio = self.p_star / p_k
            if self.p_star > p_k:  # shock on this side
                rho_star = rho_k * (ratio + beta) / (beta * ratio + 1.0)
                s_shock = v_k - sign * c_k * np.sqrt(
                    (gamma + 1.0) / (2.0 * gamma) * ratio + (gamma - 1.0) / (2.0 * gamma)
                )
                ahead = region & (sign * s < sign * s_shock)
                behind = region & ~ahead
                rho[ahead], v[ahead], p[ahead] = rho_k, v_k, p_k
                rho[behind], v[behind], p[behind] = rho_star, self.v_star, self.p_star
            else:  # rarefaction on this side
                rho_star = rho_k * ratio ** (1.0 / gamma)
                c_star = c_k * ratio ** ((gamma - 1.0) / (2.0 * gamma))
                s_head = v_k - sign * c_k
                s_tail = self.v_star - sign * c_star
                ahead = region & (sign * s < sign * s_head)
                inside = region & (sign * s >= sign * s_head) & (sign * s < sign * s_tail)
                behind = region & (sign * s >= sign * s_tail)
                rho[ahead], v[ahead], p[ahead] = rho_k, v_k, p_k
                rho[behind], v[behind], p[behind] = rho_star, self.v_star, self.p_star
                if np.any(inside):
                    si = s[inside]
                    fac = 2.0 / (gamma + 1.0) + sign * beta / c_k * (v_k - si)
                    rho[inside] = rho_k * fac ** (2.0 / (gamma - 1.0))
                    v[inside] = 2.0 / (gamma + 1.0) * (
                        sign * c_k + 0.5 * (gamma - 1.0) * v_k + si
                    )
                    p[inside] = p_k * fac ** (2.0 * gamma / (gamma - 1.0))
        return np.stack([rho, v, p], axis=-1).reshape(s_in.shape + (3,))

    def sample_conserved(self, s):
        return conserved_from_primitive(self.sample(s), self.gamma)


def exact_riemann(prim_l, prim_r, gamma=GAMMA_DEFAULT):
    """Solve the Riemann problem exactly for primitive left/right states.

    Newton iteration on the star pressure, started from the two-rarefaction
    approximation; raises VacuumError when the data generate vacuum.
    """
    prim_l = np.asarray(prim_l, dtype=float)
    prim_r = np.asarray(prim_r, dtype=float)
    rho_l, v_l, p_l = prim_l
    rho_r, v_r, p_r = prim_r
    if min(rho_l, p_l, rho_r, p_r) <= 0:
        raise ValueError("Riemann data must have positive density and pressure")
    c_l = np.sqrt(gamma * p_l / rho_l)
    c_r = np.sqrt(gamma * p_r / rho_r)
    if 2.0 * (c_l + c_r) / (gamma - 1.0) <= v_r - v_l:
        raise VacuumError("initial states generate vacuum")

    z = (gamma - 1.0) / (2.0 * gamma)
    p_two_raref = (
        (c_l + c_r - 0.5 * (gamma - 1.0) * (v_r - v_l))
        / (c_l / p_l**z + c_r / p_r**z)
    ) ** (1.0 / z)
    p = max(p_two_raref, 1e-14)

    for _ in range(RIEMANN_MAX_ITER):
        f_l, df_l = _pressure_function(p, rho_l, p_l, c_l, gamma)
        f_r, df_r = _pressure_function(p, rho_r, p_r, c_r, gamma)
        f = f_l + f_r + (v_r - v_l)
        p_new = max(p - f / (df_l + df_r), 1e-14)
        if abs(p_new - p) <= RIEMANN_TOL * max(p, 1e-14):
            p = p_new
            break
        p = p_new

    f_l, _ = _pressure_function(p, rho_l, p_l, c_l, gamma)
    f_r, _ = _pressure_function(p, rho_r, p_r, c_r, gamma)
    v_star = 0.5 * (v_l + v_r) + 0.5 * (f_r - f_l)
    return RiemannSolution(
        prim_l=prim_l, prim_r=prim_r, gamma=gamma, p_star=float(p), v_star=float(v_star)
    )


def reference_statistics(xs, t, x0, sigma, prim_l, prim_r, gamma=GAMMA_DEFAULT):
    """Mean and variance of the exact conserved solution over the uniform input.

    The discontinuity sits at x0 + sigma*xi with xi uniform on [-1, 1]; the
    left/right states are deterministic, so a single Riemann solution is
    sampled at shifted similarity coordinates and averaged with a
    REFERENCE_NODES-point Gauss rule.  At t = 0 the (shifted) initial data
    are averaged instead.  Returns (mean, var), each of shape (len(xs), 3).
    """
    xs = np.asarray(xs, dtype=float)
    sol = exact_riemann(prim_l, prim_r, gamma)
    rule = gauss_rule(REFERENCE_NODES)
    shifts = x0 + sigma * rule.nodes  # interface location per node
    if t > 0:
        s = (xs[:, None] - shifts[None, :]) / t
        states = sol.sample_conserved(s)  # (n_x, REFERENCE_NODES, 3)
    else:
        left = conserved_from_primitive(np.asarray(prim_l, float), gamma)
        right = conserved_from_primitive(np.asarray(prim_r, float), gamma)
        on_left = xs[:, None] < shifts[None, :]
        states = np.where(on_left[..., None], left, right)
    mean = np.einsum("r,xrk->xk", rule.weights, states)
    second = np.einsum("r,xrk->xk", rule.weights, states**2)
    return mean, np.maximum(second - mean**2, 0.0)
