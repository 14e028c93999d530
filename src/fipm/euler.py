"""1D Euler equations and the uncertain Riemann problem: its data ``UncertainShockIC``,
their exact projection ``project_ic``, the exact Riemann solution and its statistics.

Conserved variables are u = (rho, m, E_t) with momentum m = rho*v and total
energy E_t = p/(gamma-1) + rho*v^2/2.  A state is admissible when density and
pressure are strictly positive.  The conserved map, flux, wave speed and
admissibility are methods of the model at its gamma, which everything below
takes; all maps broadcast over leading axes, component last.
The reference statistics average the exact Riemann solution over the uniform
input, sampling REFERENCE_BLOCK rows of x at a time, so their memory is one
block's sample whatever the grid.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import gauss_rule, legendre_rows
from .errors import VacuumError, require_finite

GAMMA_DEFAULT = 1.4
#: star-pressure Newton iteration: iteration cap and relative step tolerance
RIEMANN_MAX_ITER = 100
RIEMANN_TOL = 1e-12
#: Gauss nodes of the reference statistics' average over the uniform input
REFERENCE_NODES = 100
#: x rows per block of the reference statistics: a (32, REFERENCE_NODES, 3) sample is
#: 77 KB, under glibc's 128 KiB mmap threshold, so each block's temporaries reuse heap pages
REFERENCE_BLOCK = 32


#: density and internal energy floor of a cold-start state
STATE_FLOOR = 1e-8


class EulerEntropy:
    """The Euler model at one gamma: flux, wave speed and admissible set for the
    march, entropy s(u) = -rho ln(rho^-gamma e_int) and its dual for the closure.

    u = (rho, m, E_t), e_int = E_t - m^2/(2 rho).  On the dual domain, finite v with v_3 < 0,
    the ansatz inverts s'; off it the conjugate is nan or +inf, save rho = 0 at v_1 = -inf.
    """

    n_comp = 3

    def __init__(self, gamma=GAMMA_DEFAULT):
        require_finite(gamma=gamma)
        if not gamma > 1.0:
            raise ValueError(f"gamma must exceed 1, got {gamma}")
        self.gamma = float(gamma)

    def conserved(self, w):
        """(rho, v, p) -> (rho, rho v, p/(gamma-1) + rho v^2/2)."""
        w = np.asarray(w, dtype=float)
        rho, v, p = w[..., 0], w[..., 1], w[..., 2]
        return np.stack([rho, rho * v, p / (self.gamma - 1.0) + 0.5 * rho * v**2], axis=-1)

    def _split(self, u):
        u = np.asarray(u, dtype=float)
        rho, m, e_t = u[..., 0], u[..., 1], u[..., 2]
        return rho, m, e_t - 0.5 * m**2 / rho

    def flux(self, u):
        """f(u) = (m, m v + p, v (E_t + p)) with p = (gamma - 1) e_int."""
        rho, m, e_int = self._split(u)
        p = (self.gamma - 1.0) * e_int
        v = m / rho
        return np.stack([m, m * v + p, v * (np.asarray(u, dtype=float)[..., 2] + p)], axis=-1)

    def max_speed(self, u):
        """|v| + c with sound speed c = sqrt(gamma p / rho)."""
        rho, m, e_int = self._split(u)
        return np.abs(m / rho) + np.sqrt(self.gamma * ((self.gamma - 1.0) * e_int) / rho)

    def admissible(self, u):
        """rho > 0 and e_int > 0, both finite; p > 0 then holds at any gamma."""
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            rho, _, e_int = self._split(u)
        return (rho > 0) & (e_int > 0) & np.isfinite(rho) & np.isfinite(e_int)

    def entropy(self, u):
        rho, m, e_int = self._split(u)
        return rho * (self.gamma * np.log(rho) - np.log(e_int))

    def entropy_vars(self, u):
        rho, m, e_int = self._split(u)
        v_col = m / rho
        w = -self.gamma * np.log(rho) + np.log(e_int)
        v3 = -rho / e_int
        v1 = self.gamma - w + 0.5 * v3 * v_col**2
        return np.stack([v1, m / e_int, v3], axis=-1)

    def evaluate(self, v):
        """(rho, vel, v3) of the ansatz state at dual values v."""
        v = np.asarray(v, dtype=float)
        v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vel = -v2 / v3
            w = self.gamma - v1 + 0.5 * v3 * vel**2
            rho = np.exp(-(w + np.log(-v3)) / (self.gamma - 1.0))
        return rho, vel, v3

    def conjugate_from(self, ev):
        return (self.gamma - 1.0) * ev[0]

    def states_from(self, ev):
        rho, vel, v3 = ev
        out = np.empty(rho.shape + (3,))
        out[..., 0] = rho
        out[..., 1] = rho * vel
        with np.errstate(invalid="ignore", divide="ignore"):
            out[..., 2] = -rho / v3 + 0.5 * rho * vel**2
        return out

    def jacobian_from(self, ev):
        """Unique Jacobian entries, (6, ...).

        D s'_* = rho (c c^T / (gamma - 1) + K) with c = (1, vel, vel^2/2 - 1/v3)
        and K = -(1/v3) [[0, 0, 0], [0, 1, vel], [0, vel, vel^2 - 1/v3]].
        """
        rho, vel, v3 = ev
        jac = np.empty((6,) + rho.shape)
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            inv3 = 1.0 / v3
            rho_inv3 = rho * inv3
            r = rho / (self.gamma - 1.0)
            c2 = 0.5 * vel**2 - inv3
            jac[0] = r
            jac[1] = r * vel
            jac[2] = r * c2
            jac[3] = jac[1] * vel - rho_inv3
            jac[4] = vel * (jac[2] - rho_inv3)
            jac[5] = c2 * jac[2] + rho_inv3 * (inv3 - vel**2)
        return jac

    def safe_state(self, u):
        u = np.asarray(np.nan_to_num(u, nan=STATE_FLOOR), dtype=float)
        rho = np.maximum(u[..., 0], STATE_FLOOR)
        m = u[..., 1]
        e_int = np.maximum(u[..., 2] - 0.5 * m**2 / rho, STATE_FLOOR)
        return np.stack([rho, m, e_int + 0.5 * m**2 / rho], axis=-1)


# ---------------------------------------------------------------------------
# the uncertain Riemann problem: data, exact projection, exact solution, statistics
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class UncertainShockIC:
    """Riemann data with an uncertain interface at x0 + sigma * xi, xi ~ U(-1,1).

    Both sides are at rest; ``ExperimentConfig`` keeps the uncertain band strictly
    inside the domain, so the boundary cells see deterministic states.
    """

    rho_l: float
    p_l: float
    rho_r: float
    p_r: float
    x0: float
    sigma: float

    def __post_init__(self):
        require_finite(**vars(self))
        if min(self.rho_l, self.p_l, self.rho_r, self.p_r) <= 0:
            raise ValueError("initial densities and pressures must be positive")
        if self.sigma < 0:
            raise ValueError(f"need sigma >= 0, got {self.sigma}")

    def primitive_states(self):
        return (
            np.array([self.rho_l, 0.0, self.p_l]),
            np.array([self.rho_r, 0.0, self.p_r]),
        )


def project_ic(centers, degree, ic: UncertainShockIC, model: EulerEntropy):
    """Exact basis projection of the uncertain Riemann data at cell centers.

    The state at (x, xi) is the model's conserved u_L for xi > xi*(x) and u_R
    below, with xi*(x) = clamp((x - x0)/sigma); the moments follow from the
    antiderivative of the Legendre polynomials.  Returns (len(centers), degree+1, 3).
    """
    centers = np.asarray(centers, dtype=float)
    u_l, u_r = (model.conserved(w) for w in ic.primitive_states())
    if ic.sigma > 0:
        xi_star = np.clip((centers - ic.x0) / ic.sigma, -1.0, 1.0)
    else:
        xi_star = np.where(centers < ic.x0, -1.0, 1.0)
    jump = u_l - u_r  # (3,)
    rows = legendre_rows(degree + 1, xi_star)  # (n, degree+2)
    out = np.zeros((centers.size, degree + 1, u_l.size))
    weight_l = (1.0 - xi_star) / 2.0
    out[:, 0, :] = weight_l[:, None] * u_l + (1.0 - weight_l)[:, None] * u_r
    for i in range(1, degree + 1):
        coef = (rows[:, i - 1] - rows[:, i + 1]) / (2.0 * np.sqrt(2.0 * i + 1.0))
        out[:, i, :] = coef[:, None] * jump
    return out


def _pressure_function(p, rho_k, p_k, c_k, model):
    """f_K(p) and its derivative for one side of the Riemann problem."""
    gamma = model.gamma
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
    model: EulerEntropy
    p_star: float
    v_star: float

    def sample(self, s):
        """Primitive state (rho, v, p) at s = x/t, nan where s is nan.  Each side is one wave:
        its data ahead of the head speed, the star state behind the tail, a fan between."""
        s_in = np.asarray(s, dtype=float)
        s = np.atleast_1d(s_in)
        out = np.full(s.shape + (3,), np.nan)
        rho, v, p = np.moveaxis(out, -1, 0)
        gamma = self.model.gamma
        beta = (gamma - 1.0) / (gamma + 1.0)
        sides = ((self.prim_l, 1.0, s <= self.v_star), (self.prim_r, -1.0, s > self.v_star))
        for prim, sign, region in sides:
            rho_k, v_k, p_k = prim
            c_k = np.sqrt(gamma * p_k / rho_k)
            ratio = self.p_star / p_k
            if self.p_star > p_k:  # shock on this side
                rho_star = rho_k * (ratio + beta) / (beta * ratio + 1.0)
                head = tail = v_k - sign * c_k * np.sqrt(
                    (gamma + 1.0) / (2.0 * gamma) * ratio + (gamma - 1.0) / (2.0 * gamma)
                )
            else:  # rarefaction on this side
                rho_star = rho_k * ratio ** (1.0 / gamma)
                head = v_k - sign * c_k
                tail = self.v_star - sign * c_k * ratio ** ((gamma - 1.0) / (2.0 * gamma))
            ahead = region & (sign * s < sign * head)
            behind = region & (sign * s >= sign * tail)
            fan = region & ~ahead & ~behind
            out[ahead] = prim
            out[behind] = rho_star, self.v_star, self.p_star
            si = s[fan]
            fac = 2.0 / (gamma + 1.0) + sign * beta / c_k * (v_k - si)
            rho[fan] = rho_k * fac ** (2.0 / (gamma - 1.0))
            v[fan] = 2.0 / (gamma + 1.0) * (sign * c_k + 0.5 * (gamma - 1.0) * v_k + si)
            p[fan] = p_k * fac ** (2.0 * gamma / (gamma - 1.0))
        return out.reshape(s_in.shape + (3,))

    def sample_conserved(self, s):
        return self.model.conserved(self.sample(s))


def exact_riemann(prim_l, prim_r, model: EulerEntropy):
    """Solve the Riemann problem exactly for primitive left/right states at the model's gamma.

    Newton iteration on the star pressure, started from the two-rarefaction
    approximation; raises VacuumError when the data generate vacuum.
    """
    prim_l = np.asarray(prim_l, dtype=float)
    prim_r = np.asarray(prim_r, dtype=float)
    rho_l, v_l, p_l = prim_l
    rho_r, v_r, p_r = prim_r
    gamma = model.gamma
    require_finite(rho_l=rho_l, v_l=v_l, p_l=p_l, rho_r=rho_r, v_r=v_r, p_r=p_r)
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
        f_l, df_l = _pressure_function(p, rho_l, p_l, c_l, model)
        f_r, df_r = _pressure_function(p, rho_r, p_r, c_r, model)
        f = f_l + f_r + (v_r - v_l)
        p_new = max(p - f / (df_l + df_r), 1e-14)
        if abs(p_new - p) <= RIEMANN_TOL * max(p, 1e-14):
            p = p_new
            break
        p = p_new

    f_l, _ = _pressure_function(p, rho_l, p_l, c_l, model)
    f_r, _ = _pressure_function(p, rho_r, p_r, c_r, model)
    v_star = 0.5 * (v_l + v_r) + 0.5 * (f_r - f_l)
    return RiemannSolution(
        prim_l=prim_l, prim_r=prim_r, model=model, p_star=float(p), v_star=float(v_star)
    )


def reference_statistics(xs, t, ic: UncertainShockIC, model: EulerEntropy):
    """Mean and variance of the model's exact conserved solution over the uniform input.

    The discontinuity sits at x0 + sigma*xi with xi uniform on [-1, 1]; the left/right
    states are deterministic, so a single Riemann solution is sampled at shifted
    similarity coordinates and averaged with a REFERENCE_NODES-point Gauss rule.  At
    t = 0 the (shifted) initial data are averaged instead.  The sample is taken
    REFERENCE_BLOCK rows of xs at a time, so beyond the outputs its memory is one
    (REFERENCE_BLOCK, REFERENCE_NODES, 3) block and its temporaries; each row's sums are
    bitwise those of one (len(xs), REFERENCE_NODES, 3) sample.  Returns (mean, var),
    each of shape (len(xs), 3).
    """
    xs = np.asarray(xs, dtype=float)
    prim_l, prim_r = ic.primitive_states()
    sol = exact_riemann(prim_l, prim_r, model)
    rule = gauss_rule(REFERENCE_NODES)
    shifts = ic.x0 + ic.sigma * rule.nodes  # interface location per node
    left, right = model.conserved(prim_l), model.conserved(prim_r)
    mean = np.empty((len(xs), 3))
    second = np.empty_like(mean)
    for start in range(0, len(xs), REFERENCE_BLOCK):
        rows = slice(start, start + REFERENCE_BLOCK)
        x = xs[rows, None]
        if t > 0:
            states = sol.sample_conserved((x - shifts) / t)  # (rows, REFERENCE_NODES, 3)
        else:
            states = np.where((x < shifts)[..., None], left, right)
        np.einsum("r,xrk->xk", rule.weights, states, out=mean[rows])
        np.einsum("r,xrk->xk", rule.weights, states**2, out=second[rows])
    return mean, np.maximum(second - mean**2, 0.0)
