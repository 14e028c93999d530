"""The moment-closure dual problem, for any convex entropy model.

A model (``euler.EulerEntropy`` for the Euler system) supplies a strictly
convex entropy s on its admissible states and the entropy variables
v = s'(u).  Its dual side is one interface: ``evaluate(v)`` computes once what
the maps at dual values v (..., m) share, and the readers ``conjugate_from``,
``states_from`` and ``jacobian_from`` take from that evaluation the Legendre
conjugate s_*(v), the ansatz u = s'_*(v) and the m(m+1)/2 unique entries of
the symmetric ansatz Jacobian D s'_*(v), on a leading axis in
``jacobian_pairs`` order.  The dual solve evaluates every iterate once and
reads all three from it.  The closure of a moment vector u_hat is found by
minimizing the dual functional

    d(v_hat) = <s_*(v_hat . phi)> - v_hat . u_hat + eta/2 ||v_hat||^2

over coefficient matrices v_hat of shape (N+1, m); eta = 0 is the exact
closure, eta > 0 its regularization.  Minimization is damped Newton with
backtracking on all cells of a batch simultaneously.  The dual domain is where
the objective is finite: ``conjugate_from(evaluate(y))`` is not finite at finite
node values y outside it, and a non-finite y needs a v_hat . v_hat that is not.
So a candidate that leaves the domain or overflows is a line-search rejection.

Brackets <.> are evaluated with the probability-normalized Gauss rule, so
"admissible"/"realizable" statements below are with respect to the quadrature
measure.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .basis import QuadratureRule, vandermonde


def jacobian_pairs(m):
    """(k, l) index pairs, k <= l row by row, of the unique ansatz-Jacobian entries."""
    return list(zip(*np.triu_indices(m)))


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
        # GEMM product and Hessian of _hessian_at, kept so that the Newton loop
        # writes into pages it already holds
        self._work = np.empty(0)

    # -- pointwise maps ----------------------------------------------------
    #
    # solve_batch and _evaluate call cold_start and node_values, which the
    # Galerkin closure also reads.  No run calls node_states or reconstruct;
    # the benchmark's tracer wraps them until its counters retire (ROADMAP item 24).

    def node_values(self, v_hat):
        """Dual polynomial at the quadrature nodes, (..., n_q, m)."""
        return np.matmul(self.phi, v_hat)

    def node_states(self, v_hat):
        """Ansatz states at the quadrature nodes, (..., n_q, m)."""
        return self.model.states_from(self._evaluate(v_hat))

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
    # Each kernel reads a nodal evaluation ``ev`` of a batch (B, N+1, m), the
    # one the Newton loop already holds; solve_batch is their only caller.

    def _evaluate(self, v):
        with np.errstate(over="ignore", invalid="ignore"):
            return self.model.evaluate(self.node_values(v))

    def _objective_at(self, v, u, eta, ev):
        with np.errstate(invalid="ignore", over="ignore"):
            val = (
                self.model.conjugate_from(ev) @ self.quad.weights
                - np.einsum("bim,bim->b", v, u)
                + 0.5 * eta * np.einsum("bim,bim->b", v, v)
            )
        return np.where(np.isfinite(val), val, np.inf)

    def _gradient_at(self, v, u, eta, states):
        return np.matmul(self.phi_w.T, states) + eta * v - u

    def _hessian_at(self, jac, eta):
        """H[b, (i,k), (j,l)] = sum_q T[(i,j), q] J[b, q, k, l] from the unique
        Jacobian entries jac (E, B, n_q): one stacked matmul with T into the kept
        work array, each of its E products then copied into its blocks of H.

        H is a view of the work array and is overwritten by the next call.  The
        array grows by at least a quarter at a time and never shrinks.  Each
        regrowth frees the smaller array, and glibc then raises its mmap threshold
        to that size; small steps lift it early in a run past the march's other
        state-sized temporaries, which then reuse heap pages, not fresh mappings."""
        n_e, b, _ = jac.shape
        n, m = self.degree + 1, self.model.n_comp
        n_prod, n_h = n_e * b * n * n, b * (n * m) ** 2
        if self._work.size < n_prod + n_h:
            self._work = np.empty(max(n_prod + n_h, self._work.size * 5 // 4))
        prod = self._work[:n_prod].reshape(n_e, b, n * n)
        np.matmul(jac, self._t.T, out=prod)
        prod = prod.reshape(n_e, b, n, n)
        h = self._work[n_prod : n_prod + n_h].reshape(b, n, m, n, m)
        for e, (k, l) in enumerate(self._pairs):
            h[:, :, k, :, l] = prod[e]
            if k != l:
                h[:, :, l, :, k] = prod[e]
        h = h.reshape(b, n * m, n * m)
        if eta > 0:
            h.reshape(b, -1)[:, :: n * m + 1] += eta
        return h

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
        ev = self._evaluate(v_new)
        f_new = self._objective_at(v_new, u, eta, ev)
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
            ev_cand = self._evaluate(cand)
            f_cand = self._objective_at(cand, u[todo], eta, ev_cand)
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

        ev = self._evaluate(v)
        f = self._objective_at(v, u, eta, ev)
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
