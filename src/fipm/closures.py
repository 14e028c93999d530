"""Convex entropy models and the moment-closure dual problem.

A model supplies a strictly convex entropy s on its admissible states, the
entropy variables v = s'(u), the ansatz map u = s'_*(v) (gradient of the
Legendre conjugate s_*), and the ansatz Jacobian D s'_*(v), all three read
from one per-node evaluation of v.  The closure of a moment vector u_hat is
found by minimizing the dual functional

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

# ---------------------------------------------------------------------------
# entropy models
# ---------------------------------------------------------------------------

#: density (scalar value) and internal energy floor of a cold-start state
STATE_FLOOR = 1e-8


def jacobian_pairs(m):
    """(k, l) index pairs, k <= l row by row, of the unique ansatz-Jacobian entries."""
    return list(zip(*np.triu_indices(m)))


class _DualMaps:
    """The dual-side maps of an entropy model, each read from one nodal evaluation.

    ``evaluate(v)`` computes once what the maps at dual values v (..., m)
    share; ``conjugate_from``, ``states_from`` and ``jacobian_from`` read it.
    ``jacobian_from`` returns the m(m+1)/2 unique entries of the symmetric
    Jacobian on a leading axis, in ``jacobian_pairs`` order.  The dual solve
    evaluates every iterate once and reads all three from it; the views below
    evaluate and read in one call.
    """

    def ansatz(self, v):
        """s'_*(v), (..., m)."""
        return self.states_from(self.evaluate(v))

    def conjugate(self, v):
        """s_*(v), (...)."""
        return self.conjugate_from(self.evaluate(v))

    def ansatz_jacobian(self, v):
        """D s'_*(v), (..., m, m)."""
        entries = self.jacobian_from(self.evaluate(v))
        m = self.n_comp
        jac = np.empty(entries.shape[1:] + (m, m))
        for e, (k, l) in enumerate(jacobian_pairs(m)):
            jac[..., k, l] = entries[e]
            jac[..., l, k] = entries[e]
        return jac


class ScalarLogEntropy(_DualMaps):
    """s(u) = u ln u on u > 0; ansatz s'_*(v) = exp(v - 1)."""

    n_comp = 1

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return xlogy(u[..., 0], u[..., 0])

    def entropy_vars(self, u):
        u = np.asarray(u, dtype=float)
        return np.log(u) + 1.0

    def evaluate(self, v):
        """(exp(v - 1),): the conjugate, the ansatz and its Jacobian all equal it."""
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            return (np.exp(v[..., 0] - 1.0),)

    def conjugate_from(self, ev):
        return ev[0]

    def states_from(self, ev):
        return ev[0][..., None]

    def jacobian_from(self, ev):
        """Unique Jacobian entries, (1, ...)."""
        return ev[0][None]

    def dual_feasible(self, v):
        v = np.asarray(v, dtype=float)
        return np.isfinite(v[..., 0])

    def safe_state(self, u):
        u = np.asarray(u, dtype=float)
        return np.maximum(np.nan_to_num(u, nan=STATE_FLOOR), STATE_FLOOR)


class EulerEntropy(_DualMaps):
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

    def dual_feasible(self, v):
        v = np.asarray(v, dtype=float)
        v1, v2, v3 = v[..., 0], v[..., 1], v[..., 2]
        return (v3 < 0) & np.isfinite(v1) & np.isfinite(v2) & np.isfinite(v3)

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


def _take(keep, arrays):
    """The rows of each array where keep is True."""
    rows = np.flatnonzero(keep)
    return [x.take(rows, axis=0) for x in arrays]


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
        self._pairs = jacobian_pairs(model.n_comp)

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

    # -- batched dual calculus and Newton solve ------------------------------
    #
    # Each kernel reads a nodal evaluation ``ev = model.evaluate(y)`` of the
    # node values y of a batch (B, N+1, m); the public objective, gradient and
    # hessian evaluate and call the same kernels that the Newton loop runs on
    # the evaluation it already holds.

    def _evaluate(self, v):
        y = self.node_values(v)
        return y, self.model.evaluate(y)

    def _objective_at(self, v, u, eta, y, ev):
        feasible = np.all(self.model.dual_feasible(y), axis=-1)
        with np.errstate(invalid="ignore", over="ignore"):
            val = (
                self.model.conjugate_from(ev) @ self.quad.weights
                - np.einsum("bim,bim->b", v, u)
                + 0.5 * eta * np.einsum("bim,bim->b", v, v)
            )
        bad = ~feasible | ~np.isfinite(val)
        return np.where(bad, np.inf, val)

    def _gradient_at(self, v, u, eta, states):
        return np.matmul(self.phi_w.T, states) + eta * v - u

    def _hessian_at(self, jac, eta):
        """H[b, (i,k), (j,l)] = sum_q T[(i,j), q] J[b, q, k, l] from the unique
        Jacobian entries jac (E, B, n_q): one matrix product with T per entry,
        each result written straight into its blocks."""
        n_e, b, _ = jac.shape
        n, m = self.degree + 1, self.model.n_comp
        prod = (jac @ self._t.T).reshape(n_e, b, n, n)
        h = np.empty((b, n, m, n, m))
        for e, (k, l) in enumerate(self._pairs):
            h[:, :, k, :, l] = prod[e]
            if k != l:
                h[:, :, l, :, k] = prod[e]
        h = h.reshape(b, n * m, n * m)
        if eta > 0:
            h.reshape(b, -1)[:, :: n * m + 1] += eta
        return h

    def objective(self, v, u, eta):
        """Dual objective per cell of a batch (B, N+1, m); +inf outside the dual
        domain or where the conjugate overflows."""
        return self._objective_at(v, u, eta, *self._evaluate(v))

    def gradient(self, v, u, eta):
        """Gradient per cell and the nodal ansatz states (B, n_q, m) it was computed from."""
        a = self.model.states_from(self._evaluate(v)[1])
        return self._gradient_at(v, u, eta, a), a

    def hessian(self, v, eta):
        """Hessian per cell, (B, (N+1) m, (N+1) m)."""
        return self._hessian_at(self.model.jacobian_from(self._evaluate(v)[1]), eta)

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
        """Backtracking from the full step; returns (v_new, f_new, ev_new, accepted),
        ev_new the nodal evaluation of v_new wherever accepted.

        The full step is tried on every cell at once; only the cells that reject
        it backtrack.  The sufficient-decrease test carries a rounding-noise
        floor: close to the minimum a Newton step improves the objective by
        ~||g||^2/||H||, which can fall below the float resolution of f itself.
        """
        noise = 1e-14 * (1.0 + np.abs(f0))
        v_new = v + direction
        y, ev = self._evaluate(v_new)
        f_new = self._objective_at(v_new, u, eta, y, ev)
        accepted = f_new <= f0 + LS_SLOPE * slope + noise
        todo = np.flatnonzero(~accepted)
        v_new[todo] = v[todo]
        f_new[todo] = f0[todo]
        step = 1.0
        for _ in range(LS_MAX - 1):
            if todo.size == 0:
                break
            step *= LS_CONTRACTION
            cand = v[todo] + step * direction[todo]
            y, ev_cand = self._evaluate(cand)
            f_cand = self._objective_at(cand, u[todo], eta, y, ev_cand)
            ok = f_cand <= f0[todo] + LS_SLOPE * step * slope[todo] + noise[todo]
            hit = todo[ok]
            v_new[hit] = cand[ok]
            f_new[hit] = f_cand[ok]
            accepted[hit] = True
            for full, part in zip(ev, ev_cand):
                full[hit] = part[ok]
            todo = todo[~ok]
        return v_new, f_new, ev, accepted

    def solve_batch(self, u_hat, start, tol, eta):
        """Minimize the dual functional for every cell of u_hat (B, N+1, m).

        ``start`` is the warm start (None for a cold start), ``tol`` the
        gradient-norm tolerance tau and ``eta`` the regularization.  Returns
        (v_hat, SolveInfo).  Cells whose start is infeasible, that stall in the
        line search or exhaust NEWTON_MAX_ITER are reported as non-converged,
        not raised; SolveInfo.states holds the nodal ansatz states of the
        converged cells.

        The iterating cells form a working set: their indices, duals, moments,
        objective values and nodal evaluation, held as compacted arrays.  Each
        iterate is evaluated once, by the line search that accepts it, and the
        next gradient and Hessian read that evaluation.  A cell's duals go back
        to the full array when it converges or stalls.
        """
        u = np.asarray(u_hat, dtype=float)
        v = self.cold_start(u) if start is None else np.array(start, dtype=float)
        b = u.shape[0]

        iterations = np.zeros(b, dtype=int)
        grad_norm = np.full(b, np.inf)
        converged = np.zeros(b, dtype=bool)
        states = np.full((b, self.phi.shape[0], u.shape[-1]), np.nan)

        y, ev = self._evaluate(v)
        f = self._objective_at(v, u, eta, y, ev)
        feasible = np.isfinite(f)
        cells = np.flatnonzero(feasible)
        work = (v, u, f, *ev)
        v_w, u_w, f_w, *ev = work if feasible.all() else _take(feasible, work)

        for it in range(NEWTON_MAX_ITER + 1):
            if cells.size == 0:
                break
            a = self.model.states_from(ev)
            g = self._gradient_at(v_w, u_w, eta, a)
            gn = np.linalg.norm(g.reshape(cells.size, -1), axis=1)
            grad_norm[cells] = gn
            done = gn < tol
            if done.any():
                leaving = cells[done]
                converged[leaving] = True
                states[leaving] = a[done]
                v[leaving] = v_w[done]
                cells, v_w, u_w, f_w, g, *ev = _take(~done, (cells, v_w, u_w, f_w, g, *ev))
            if cells.size == 0 or it == NEWTON_MAX_ITER:
                break

            g_flat = g.reshape(cells.size, -1)
            h = self._hessian_at(self.model.jacobian_from(ev), eta)
            d_flat = self._newton_directions(h, g_flat)
            slope = np.einsum("bd,bd->b", g_flat, d_flat)
            # a direction that is not downhill becomes steepest descent
            uphill = slope >= 0
            if uphill.any():
                d_flat[uphill] = -g_flat[uphill]
                slope[uphill] = -np.sum(g_flat[uphill] ** 2, axis=1)

            v_w, f_w, ev, accepted = self._line_search(
                v_w, u_w, eta, f_w, d_flat.reshape(g.shape), slope
            )
            iterations[cells] += accepted
            # cells that cannot move are stalled; stop iterating them
            if not accepted.all():
                v[cells[~accepted]] = v_w[~accepted]
                cells, v_w, u_w, f_w, *ev = _take(accepted, (cells, v_w, u_w, f_w, *ev))

        v[cells] = v_w
        return v, SolveInfo(
            converged=converged, iterations=iterations, grad_norm=grad_norm, states=states
        )
