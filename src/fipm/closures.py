"""Convex entropy models and the moment-closure dual problem.

A model supplies a strictly convex entropy s on its admissible states, the
entropy variables v = s'(u), the ansatz map u = s'_*(v) (gradient of the
Legendre conjugate s_*), and the ansatz Jacobian D s'_*(v).  The closure of a
moment vector u_hat is found by minimizing the dual functional

    d(v_hat) = <s_*(v_hat . phi)> - v_hat . u_hat + eta/2 ||v_hat||^2

over coefficient matrices v_hat of shape (N+1, m); eta = 0 is the exact
closure, eta > 0 its regularization.  Minimization is damped Newton with
backtracking on all cells of a batch simultaneously; candidates that leave the
dual domain or overflow are treated as line-search rejections.

Brackets <.> are evaluated with the probability-normalized Gauss rule, so
"admissible"/"realizable" statements below are with respect to the quadrature
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import xlogy

from .basis import QuadratureRule, vandermonde
from .errors import DualDomainError, DualNonConvergenceError

# ---------------------------------------------------------------------------
# entropy models
# ---------------------------------------------------------------------------

#: density (scalar value) and internal energy floor of a cold-start state
STATE_FLOOR = 1e-8


class ScalarLogEntropy:
    """s(u) = u ln u on u > 0; ansatz s'_*(v) = exp(v - 1)."""

    n_comp = 1

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return xlogy(u[..., 0], u[..., 0])

    def entropy_vars(self, u):
        u = np.asarray(u, dtype=float)
        return np.log(u) + 1.0

    def ansatz(self, v):
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(v - 1.0)

    def ansatz_jacobian(self, v):
        return self.ansatz(v)[..., None]

    def conjugate(self, v):
        return self.ansatz(v)[..., 0]

    def dual_feasible(self, v):
        v = np.asarray(v, dtype=float)
        return np.isfinite(v[..., 0])

    def safe_state(self, u):
        u = np.asarray(u, dtype=float)
        return np.maximum(np.nan_to_num(u, nan=STATE_FLOOR), STATE_FLOOR)


class EulerEntropy:
    """Physical entropy s(u) = -rho ln(rho^-gamma e_int) for 1D Euler states.

    u = (rho, m, E_t), e_int = E_t - m^2/(2 rho).  The dual domain is
    {v : v_3 < 0}; on it the ansatz is the closed-form inverse of s'.
    """

    n_comp = 3

    def __init__(self, gamma=1.4):
        self.gamma = float(gamma)

    def _split(self, u):
        u = np.asarray(u, dtype=float)
        rho, m, e_t = u[..., 0], u[..., 1], u[..., 2]
        return rho, m, e_t - 0.5 * m**2 / rho

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

    def _rho_vel(self, v):
        v = np.asarray(v, dtype=float)
        v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            vel = -v2 / v3
            w = self.gamma - v1 + 0.5 * v3 * vel**2
            rho = np.exp(-(w + np.log(-v3)) / (self.gamma - 1.0))
        return rho, vel, v3

    def ansatz(self, v):
        rho, vel, v3 = self._rho_vel(v)
        with np.errstate(invalid="ignore", divide="ignore"):
            e_t = -rho / v3 + 0.5 * rho * vel**2
        return np.stack([rho, rho * vel, e_t], axis=-1)

    def ansatz_jacobian(self, v):
        rho, vel, v3 = self._rho_vel(v)
        with np.errstate(invalid="ignore", divide="ignore"):
            inv3 = 1.0 / v3
            c = np.stack([np.ones_like(vel), vel, 0.5 * vel**2 - inv3], axis=-1)
            jac = c[..., :, None] * c[..., None, :] / (self.gamma - 1.0)
            jac[..., 1, 1] += -inv3
            jac[..., 1, 2] += -vel * inv3
            jac[..., 2, 1] += -vel * inv3
            jac[..., 2, 2] += inv3**2 - vel**2 * inv3
        return rho[..., None, None] * jac

    def conjugate(self, v):
        rho, _, _ = self._rho_vel(v)
        return (self.gamma - 1.0) * rho

    def dual_feasible(self, v):
        v = np.asarray(v, dtype=float)
        return (v[..., 2] < 0) & np.all(np.isfinite(v), axis=-1)

    def safe_state(self, u):
        u = np.asarray(np.nan_to_num(u, nan=STATE_FLOOR), dtype=float)
        rho = np.maximum(u[..., 0], STATE_FLOOR)
        m = u[..., 1]
        e_int = np.maximum(u[..., 2] - 0.5 * m**2 / rho, STATE_FLOOR)
        return np.stack([rho, m, e_int + 0.5 * m**2 / rho], axis=-1)


# ---------------------------------------------------------------------------
# dual problem over a truncated basis
# ---------------------------------------------------------------------------

#: backtracking line search: step contraction, sufficient-decrease slope, max trials
LS_CONTRACTION = 0.5
LS_SLOPE = 1e-4
LS_MAX = 50
#: Newton iterations per cell before it is reported as non-converged
NEWTON_MAX_ITER = 200


@dataclass(frozen=True)
class DualSolverConfig:
    """Newton parameters of the dual minimization: gradient tolerance tau and eta."""

    tol: float = 1e-7
    eta: float = 0.0

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")
        if self.tol <= 0:
            raise ValueError(f"tau must be positive, got {self.tol}")


@dataclass
class SolveInfo:
    """Per-cell outcome of a batched dual solve."""

    converged: np.ndarray
    iterations: np.ndarray
    grad_norm: np.ndarray
    #: ansatz states at the nodes, (B, n_q, m); NaN rows for non-converged cells
    states: np.ndarray

    @property
    def all_converged(self) -> bool:
        return bool(np.all(self.converged))

    @property
    def total_iterations(self) -> int:
        return int(np.sum(self.iterations))


class ClosureSolver:
    """Dual closures of moment vectors for one model, basis degree, and rule."""

    def __init__(self, model, degree: int, quad: QuadratureRule):
        self.model = model
        self.degree = int(degree)
        self.quad = quad
        self.phi = vandermonde(degree, quad.nodes)  # (n_q, N+1)
        self.phi_w = self.phi * quad.weights[:, None]
        # T[(i, j), q] = w_q phi_i(xi_q) phi_j(xi_q), reused in every Hessian
        self._t = np.einsum("qi,qj->ijq", self.phi_w, self.phi).reshape(-1, len(quad.weights))

    # -- pointwise maps ----------------------------------------------------

    def node_values(self, v_hat):
        """Dual polynomial at the quadrature nodes, (..., n_q, m)."""
        return np.matmul(self.phi, v_hat)

    def node_states(self, v_hat):
        """Ansatz states at the quadrature nodes, (..., n_q, m)."""
        return self.model.ansatz(self.node_values(v_hat))

    def reconstruct(self, v_hat):
        """Moments of the ansatz, <phi s'_*(v_hat . phi)>, same shape as v_hat."""
        return np.matmul(self.phi_w.T, self.node_states(v_hat))

    def cold_start(self, u_hat):
        """Dual start from the mean state; rows above degree 0 are zero."""
        v = np.zeros_like(u_hat)
        v[..., 0, :] = self.model.entropy_vars(self.model.safe_state(u_hat[..., 0, :]))
        return v

    # -- single-cell views of the batched calculus ---------------------------

    def objective(self, v_hat, u_hat, eta=0.0):
        """Dual objective of one cell; raises outside the dual domain."""
        val = self._batch_objective(v_hat[None], u_hat[None], eta)[0]
        if not np.isfinite(val):
            raise DualDomainError("dual variables leave the conjugate domain or overflow")
        return float(val)

    def gradient(self, v_hat, u_hat, eta=0.0):
        return self._batch_gradient(v_hat[None], u_hat[None], eta)[0][0]

    def hessian(self, v_hat, eta=0.0):
        return self._batch_hessian(v_hat[None], eta)[0]

    # -- batched Newton solve -----------------------------------------------

    def _batch_objective(self, v, u, eta):
        """Objective and feasibility per cell; infeasible cells get +inf."""
        y = self.node_values(v)
        feasible = np.all(self.model.dual_feasible(y), axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):
            val = (
                self.model.conjugate(y) @ self.quad.weights
                - np.einsum("bim,bim->b", v, u)
                + 0.5 * eta * np.einsum("bim,bim->b", v, v)
            )
        bad = ~feasible | ~np.isfinite(val)
        val = np.where(bad, np.inf, val)
        return val

    def _batch_gradient(self, v, u, eta):
        """Gradient per cell and the nodal ansatz states it was computed from."""
        a = self.node_states(v)
        return np.matmul(self.phi_w.T, a) + eta * v - u, a

    def _batch_hessian(self, v, eta):
        """sum_q T[q] (x) J[b, q] as one batched matrix product."""
        jac = self.model.ansatz_jacobian(self.node_values(v))
        b, n_q, m, _ = jac.shape
        n = self.degree + 1
        h = (self._t @ jac.reshape(b, n_q, m * m)).reshape(b, n, n, m, m)
        h = h.transpose(0, 1, 3, 2, 4).reshape(b, n * m, n * m)
        return h + eta * np.eye(n * m)

    @staticmethod
    def _newton_directions(h, g_flat):
        """Solve H d = -g per cell, falling back to -g where H is singular."""
        try:
            return np.linalg.solve(h, -g_flat[..., None])[..., 0]
        except np.linalg.LinAlgError:
            d = np.empty_like(g_flat)
            for b in range(h.shape[0]):
                try:
                    d[b] = np.linalg.solve(h[b], -g_flat[b])
                except np.linalg.LinAlgError:
                    d[b] = -g_flat[b]
            return d

    def _line_search(self, v, u, eta, f0, direction, slope):
        """Vectorized backtracking; returns (v_new, f_new, accepted).

        The sufficient-decrease test carries a rounding-noise floor: close to
        the minimum a Newton step improves the objective by ~||g||^2/||H||,
        which can fall below the float resolution of f itself.
        """
        n = v.shape[0]
        step = np.ones(n)
        accepted = np.zeros(n, dtype=bool)
        v_new = v.copy()
        f_new = f0.copy()
        noise = 1e-14 * (1.0 + np.abs(f0))
        todo = np.arange(n)
        for _ in range(LS_MAX):
            cand = v[todo] + step[todo, None, None] * direction[todo]
            f_cand = self._batch_objective(cand, u[todo], eta)
            ok = f_cand <= f0[todo] + LS_SLOPE * step[todo] * slope[todo] + noise[todo]
            if np.any(ok):
                hit = todo[ok]
                v_new[hit] = cand[ok]
                f_new[hit] = f_cand[ok]
                accepted[hit] = True
                todo = todo[~ok]
                if todo.size == 0:
                    break
            step[todo] *= LS_CONTRACTION
        return v_new, f_new, accepted

    def solve_batch(self, u_hat, start=None, config: DualSolverConfig | None = None):
        """Minimize the dual functional for every cell of u_hat (B, N+1, m).

        Returns (v_hat, SolveInfo).  Cells whose start is infeasible, that
        stall in the line search or exhaust NEWTON_MAX_ITER are reported as
        non-converged; SolveInfo.states holds the nodal ansatz states of the
        converged cells.
        """
        config = config or DualSolverConfig()
        u = np.asarray(u_hat, dtype=float)
        v = self.cold_start(u) if start is None else np.array(start, dtype=float)
        b = u.shape[0]
        eta = config.eta

        f = self._batch_objective(v, u, eta)
        iterations = np.zeros(b, dtype=int)
        grad_norm = np.full(b, np.inf)
        converged = np.zeros(b, dtype=bool)
        states = np.full((b, self.phi.shape[0], u.shape[-1]), np.nan)
        active = np.flatnonzero(np.isfinite(f))

        for it in range(NEWTON_MAX_ITER + 1):
            if active.size == 0:
                break
            g, a = self._batch_gradient(v[active], u[active], eta)
            gn = np.linalg.norm(g.reshape(active.size, -1), axis=1)
            grad_norm[active] = gn
            done = gn < config.tol
            converged[active[done]] = True
            states[active[done]] = a[done]
            active = active[~done]
            if active.size == 0 or it == NEWTON_MAX_ITER:
                break

            g = g[~done]
            g_flat = g.reshape(active.size, -1)
            h = self._batch_hessian(v[active], eta)
            d_flat = self._newton_directions(h, g_flat)
            slope = np.einsum("bd,bd->b", g_flat, d_flat)
            # a direction that is not downhill becomes steepest descent
            uphill = slope >= 0
            if np.any(uphill):
                d_flat[uphill] = -g_flat[uphill]
                slope[uphill] = -np.sum(g_flat[uphill] ** 2, axis=1)

            v_act, f_act, accepted = self._line_search(
                v[active], u[active], eta, f[active], d_flat.reshape(g.shape), slope
            )
            v[active] = v_act
            f[active] = f_act
            iterations[active] += accepted.astype(int)
            # cells that cannot move are stalled; stop iterating them
            active = active[accepted]

        return v, SolveInfo(
            converged=converged, iterations=iterations, grad_norm=grad_norm, states=states
        )

    def solve(self, u_hat, start=None, config: DualSolverConfig | None = None):
        """Single-cell dual solve; raises DualNonConvergenceError on failure."""
        u = np.asarray(u_hat, dtype=float)
        v, info = self.solve_batch(
            u[None], None if start is None else np.asarray(start, dtype=float)[None], config
        )
        if not info.all_converged:
            raise DualNonConvergenceError(
                "dual Newton iteration did not reach tolerance "
                f"(last gradient norm {info.grad_norm[0]:.3e})",
                grad_norm=float(info.grad_norm[0]),
                iterations=int(info.iterations[0]),
            )
        return v[0]
