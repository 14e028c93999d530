"""Entropy-model calculus and dual-solver contracts.

Derivative maps are checked against central finite differences, the conjugate
against the Legendre identity s_*(v) = v.u(v) - s(u(v)), and the regularized
scalar solve against an independent bisection oracle.
"""

import numpy as np
import pytest
from entropy_models import ScalarLogEntropy, ansatz, ansatz_jacobian, conjugate
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fipm.basis import gauss_rule
from fipm.closures import (
    LS_CONTRACTION,
    LS_MAX,
    LS_SLOPE,
    NEWTON_MAX_ITER,
    ClosureSolver,
)
from fipm.euler import EulerEntropy

RNG = np.random.default_rng(12345)
#: gradient-norm tolerance of the dual solves below, the march's default tau
TAU = 1e-7


def fd_gradient(fn, x, eps=1e-6):
    """Central-difference gradient of scalar fn at x (1-d array)."""
    g = np.empty_like(x)
    for k in range(x.size):
        dx = np.zeros_like(x)
        dx[k] = eps * max(1.0, abs(x[k]))
        g[k] = (fn(x + dx) - fn(x - dx)) / (2 * dx[k])
    return g


def fd_jacobian(fn, x, eps=1e-6):
    """Central-difference Jacobian of vector fn at x (1-d array)."""
    cols = []
    for k in range(x.size):
        dx = np.zeros_like(x)
        dx[k] = eps * max(1.0, abs(x[k]))
        cols.append((fn(x + dx) - fn(x - dx)) / (2 * dx[k]))
    return np.stack(cols, axis=-1)


def random_euler_states(n, rng=RNG):
    rho = rng.uniform(0.1, 5.0, n)
    v = rng.uniform(-2.0, 2.0, n)
    p = rng.uniform(0.05, 5.0, n)
    return EulerEntropy().conserved(np.stack([rho, v, p], axis=-1))


ALL_MODELS = [ScalarLogEntropy(), EulerEntropy(1.4)]


#: every float, with the signed zeros, infinities and nan drawn often
EDGE_FLOATS = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan]) | st.floats()


def outside_euler_dual_domain(v):
    """v_3 >= 0 (either zero) or a non-finite component, except v_1 = -inf with
    the rest inside, whose ansatz density is zero: a finite conjugate."""
    rest_inside = np.isfinite(v[1]) and np.isfinite(v[2]) and v[2] < 0
    return (v[2] >= 0 or not np.all(np.isfinite(v))) and not (v[0] == -np.inf and rest_inside)


def random_states(model, n, rng=RNG):
    if isinstance(model, EulerEntropy):
        return random_euler_states(n, rng)
    return rng.uniform(0.05, 10.0, (n, 1))


class TestModelCalculus:
    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_entropy_vars_is_entropy_gradient(self, model):
        for u in random_states(model, 10):
            g = fd_gradient(lambda x: model.entropy(x), u)
            assert model.entropy_vars(u) == pytest.approx(g, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_ansatz_inverts_entropy_vars(self, model):
        u = random_states(model, 40)
        v = model.entropy_vars(u)
        assert np.all(np.isfinite(conjugate(model, v)))
        assert ansatz(model, v) == pytest.approx(u, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_conjugate_legendre_identity(self, model):
        u = random_states(model, 40)
        v = model.entropy_vars(u)
        expected = np.sum(v * u, axis=-1) - model.entropy(u)
        assert conjugate(model, v) == pytest.approx(expected, rel=1e-9, abs=1e-11)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_ansatz_jacobian_matches_fd(self, model):
        for u in random_states(model, 10):
            v = model.entropy_vars(u)
            jac = ansatz_jacobian(model, v)
            fd = fd_jacobian(lambda x: ansatz(model, x), v)
            assert jac == pytest.approx(fd, rel=1e-5, abs=1e-7)

    @pytest.mark.parametrize("model", ALL_MODELS, ids=lambda m: type(m).__name__)
    def test_ansatz_jacobian_symmetric_positive_definite(self, model):
        u = random_states(model, 20)
        jac = ansatz_jacobian(model, model.entropy_vars(u))
        assert jac == pytest.approx(np.swapaxes(jac, -1, -2), rel=1e-12, abs=1e-12)
        assert np.all(np.linalg.eigvalsh(jac) > 0)

    @given(v=st.tuples(EDGE_FLOATS, EDGE_FLOATS, EDGE_FLOATS).filter(outside_euler_dual_domain))
    @example(v=(0.0, 0.0, 0.0))
    @example(v=(0.0, 0.0, -0.0))
    @example(v=(0.0, 0.0, 0.1))
    @example(v=(np.nan, 0.0, -0.5))
    @example(v=(0.0, np.inf, -0.5))
    @example(v=(np.inf, 0.0, -0.5))
    @settings(max_examples=300, deadline=None)
    def test_euler_conjugate_is_not_finite_outside_the_dual_domain(self, v):
        assert not np.isfinite(conjugate(EulerEntropy(1.4), np.array(v)))

    def test_euler_conjugate_at_the_domain_edges(self):
        """Finite just inside v_3 < 0; v_1 = -inf with the rest inside is a zero density."""
        model = EulerEntropy(1.4)
        assert np.isfinite(conjugate(model, np.array([0.0, 0.0, -0.5])))
        assert conjugate(model, np.array([-np.inf, 0.3, -0.5])) == 0.0

    def test_safe_state_projects_into_admissibility(self):
        model = EulerEntropy(1.4)
        bad = np.array([[-1.0, 0.5, 0.1], [1.0, 3.0, 1.0], [np.nan, 0.0, 1.0]])
        fixed = model.safe_state(bad)
        assert np.all(model.admissible(fixed))
        good = random_euler_states(5)
        assert model.safe_state(good) == pytest.approx(good, rel=1e-12)

    @given(st.floats(-30.0, 3.0))
    @settings(max_examples=100, deadline=None)
    def test_scalar_log_ansatz_positive(self, v):
        u = ansatz(ScalarLogEntropy(), np.array([v]))
        assert u[0] > 0


@pytest.fixture(scope="module")
def scalar_solver():
    return ClosureSolver(ScalarLogEntropy(), degree=3, quad=gauss_rule(12))


@pytest.fixture(scope="module")
def euler_solver():
    return ClosureSolver(EulerEntropy(1.4), degree=5, quad=gauss_rule(20))


def random_feasible_duals(solver, n, scale=0.1, rng=None):
    """Random dual coefficients whose node values stay strictly feasible."""
    rng = rng or np.random.default_rng(7)
    model = solver.model
    out = []
    while len(out) < n:
        u0 = random_states(model, 1, rng)[0]
        v = np.zeros((solver.degree + 1, model.n_comp))
        v[0] = model.entropy_vars(u0)
        v[1:] = scale * rng.normal(size=v[1:].shape) * np.abs(v[0]).max()
        for _ in range(30):
            if model.n_comp == 1 or np.all(solver.node_values(v)[:, 2] < -1e-3):
                out.append(v.copy())
                break
            v[1:] *= 0.5
    return out


class TestDualFunctionals:
    def test_constant_dual_is_exact_stationary_point(self, scalar_solver):
        v_hat = np.zeros((4, 1))
        v_hat[0, 0] = 1.0  # ansatz identically 1
        u_hat = np.zeros((4, 1))
        u_hat[0, 0] = 1.0
        assert scalar_solver.objective(v_hat[None], u_hat[None], 0.0)[0] == pytest.approx(
            0.0, abs=1e-14
        )
        g, _ = scalar_solver.gradient(v_hat[None], u_hat[None], 0.0)
        assert np.abs(g).max() == pytest.approx(0.0, abs=1e-14)

    def test_gradient_matches_fd_of_objective(self, euler_solver):
        for v_hat in random_feasible_duals(euler_solver, 4):
            u_hat = euler_solver.reconstruct(v_hat) * 0.9  # arbitrary target
            shape = v_hat.shape

            def obj(flat):
                return euler_solver.objective(flat.reshape(shape)[None], u_hat[None], 0.01)[0]

            g = euler_solver.gradient(v_hat[None], u_hat[None], 0.01)[0][0]
            assert g.ravel() == pytest.approx(
                fd_gradient(obj, v_hat.ravel(), eps=1e-7), rel=2e-5, abs=1e-8
            )

    def test_hessian_matches_fd_of_gradient(self, euler_solver):
        for v_hat in random_feasible_duals(euler_solver, 3):
            shape = v_hat.shape
            u_hat = np.zeros((1, *shape))

            def grad(flat):
                return euler_solver.gradient(flat.reshape(1, *shape), u_hat, 0.0)[0].ravel()

            h = euler_solver.hessian(v_hat[None], 0.0)[0]
            h_fd = fd_jacobian(grad, v_hat.ravel(), eps=1e-6)
            assert h == pytest.approx(h_fd, rel=2e-5, abs=1e-7)
            assert h == pytest.approx(h.T, rel=1e-10, abs=1e-12)
            assert np.all(np.linalg.eigvalsh(h) > 0)

    def test_objective_is_inf_outside_domain(self, euler_solver):
        v_hat = np.zeros((2, 6, 3))
        v_hat[0, 0] = [0.0, 0.0, 0.5]  # v3 > 0 everywhere
        v_hat[1] = random_feasible_duals(euler_solver, 1)[0]
        f = euler_solver.objective(v_hat, np.zeros((2, 6, 3)), 0.0)
        assert f[0] == np.inf
        assert np.isfinite(f[1])

    @pytest.mark.parametrize("eta", [0.0, 1e-3])
    def test_objective_is_inf_where_the_node_values_are_not_finite(self, euler_solver, eta):
        """v_1 = -inf at every node has a zero, finite conjugate; an infinite or
        overflowing coefficient makes v_hat . v_hat, and so the objective, not finite."""
        v_hat = np.stack(random_feasible_duals(euler_solver, 3))
        v_hat[0, 0, 0] = -np.inf
        v_hat[1, 5, 0] = -1e308  # finite, but its node values overflow
        u = euler_solver.reconstruct(v_hat[2:])
        with np.errstate(over="ignore"):  # the public node-value product itself overflows
            y = euler_solver.node_values(v_hat)
        f = euler_solver.objective(v_hat, np.concatenate([u, u, u]), eta)
        assert np.all(y[0, :, 0] == -np.inf) and np.any(np.isinf(y[1, :, 0]))
        assert np.all(conjugate(euler_solver.model, y[0]) == 0.0)
        assert f[0] == np.inf and f[1] == np.inf
        assert np.isfinite(f[2])


def loop_hessian(solver, v_hat, eta):
    """Dual Hessian of one cell as sum_q w_q phi_i phi_j J(xi_q), one node and pair at a time."""
    n, m = v_hat.shape
    jac = ansatz_jacobian(solver.model, solver.node_values(v_hat))
    h = np.zeros((n, m, n, m))
    for q, w in enumerate(solver.quad.weights):
        for i in range(n):
            for j in range(n):
                h[i, :, j, :] += w * solver.phi[q, i] * solver.phi[q, j] * jac[q]
    return h.reshape(n * m, n * m) + eta * np.eye(n * m)


class TestHessianAssembly:
    @pytest.mark.parametrize(
        "model,degree,n_quad",
        [
            (EulerEntropy(1.4), 5, 20),
            (EulerEntropy(1.4), 10, 30),
            (ScalarLogEntropy(), 5, 20),
        ],
        ids=["euler-5-20", "euler-10-30", "scalar-log"],
    )
    @pytest.mark.parametrize("eta", [0.0, 1e-3])
    def test_batched_assembly_equals_per_node_sum(self, model, degree, n_quad, eta):
        solver = ClosureSolver(model, degree=degree, quad=gauss_rule(n_quad))
        duals = np.stack(random_feasible_duals(solver, 4))
        h = solver.hessian(duals, eta)
        d = (degree + 1) * model.n_comp
        assert h.shape == (4, d, d)
        for b, v_hat in enumerate(duals):
            expected = loop_hessian(solver, v_hat, eta)
            scale = np.abs(expected).max()
            assert np.abs(h[b] - expected).max() <= 1e-14 * scale
            assert np.abs(h[b] - h[b].T).max() <= 1e-14 * scale


class TestKeptWorkArray:
    """The Hessian work array is kept between calls; nothing of an earlier call may show."""

    def test_smaller_later_batch_matches_a_fresh_solver(self):
        model, quad = EulerEntropy(1.4), gauss_rule(20)
        solver = ClosureSolver(model, degree=5, quad=quad)
        duals = np.stack(random_feasible_duals(solver, 55, rng=np.random.default_rng(3)))
        jac = model.jacobian_from(solver._evaluate(duals))
        solver._hessian_at(jac[:, :50], 1e-3)
        h = solver._hessian_at(jac[:, 50:], 0.0)
        fresh = ClosureSolver(model, degree=5, quad=quad)
        assert np.array_equal(h, fresh._hessian_at(jac[:, 50:], 0.0))

    def test_hessian_result_survives_a_later_solve(self, euler_solver):
        duals = np.stack(random_feasible_duals(euler_solver, 4))
        h = euler_solver.hessian(duals, 0.0)
        kept = h.copy()
        u = euler_solver.reconstruct(duals)
        _, info = euler_solver.solve_batch(u, None, TAU, 0.0)
        assert info.all_converged and info.total_iterations > 0
        assert np.array_equal(h, kept)


class TestSolve:
    def test_recovers_constant_state(self, scalar_solver):
        u_hat = np.zeros((4, 1))
        u_hat[0, 0] = 2.0
        v, info = scalar_solver.solve_batch(u_hat[None], None, TAU, 0.0)
        assert info.all_converged
        v = v[0]
        # exact answer: ansatz identically 2 -> v_hat = (1 + ln 2, 0, 0, 0)
        assert v[0, 0] == pytest.approx(1.0 + np.log(2.0), abs=1e-8)
        assert np.abs(v[1:]).max() < 1e-8
        assert scalar_solver.reconstruct(v) == pytest.approx(u_hat, abs=1e-8)

    def test_regularized_constant_matches_bisection_oracle(self):
        solver = ClosureSolver(ScalarLogEntropy(), degree=0, quad=gauss_rule(8))
        eta = 0.01

        def g(v):  # gradient of the N=0 dual
            return np.exp(v - 1.0) + eta * v - 1.0

        lo, hi = 0.0, 1.0
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if g(mid) > 0:
                hi = mid
            else:
                lo = mid
        v_oracle = 0.5 * (lo + hi)
        v, info = solver.solve_batch(np.array([[[1.0]]]), None, 1e-12, eta)
        assert info.all_converged
        assert v[0, 0, 0] == pytest.approx(v_oracle, abs=1e-10)

    @pytest.mark.parametrize("which", ["scalar", "euler"])
    def test_duality_round_trip(self, which, scalar_solver, euler_solver):
        solver = scalar_solver if which == "scalar" else euler_solver
        for v_star in random_feasible_duals(solver, 5):
            u_hat = solver.reconstruct(v_star)
            v, info = solver.solve_batch(u_hat[None], None, TAU, 0.0)
            assert info.all_converged
            v = v[0]
            assert solver.reconstruct(v) == pytest.approx(u_hat, abs=10 * TAU)
            assert v == pytest.approx(v_star, abs=1e-4)

    def test_warm_start_agrees_with_cold_start(self, euler_solver):
        v_star = random_feasible_duals(euler_solver, 1)[0]
        u_hat = euler_solver.reconstruct(v_star)
        cold, cold_info = euler_solver.solve_batch(u_hat[None], None, TAU, 0.0)
        warm, warm_info = euler_solver.solve_batch(u_hat[None], (v_star + 0.01)[None], TAU, 0.0)
        assert cold_info.all_converged and warm_info.all_converged
        assert warm == pytest.approx(cold, abs=1e-5)

    def test_nonrealizable_scalar_moments_fail_without_regularization(self):
        solver = ClosureSolver(ScalarLogEntropy(), degree=1, quad=gauss_rule(20))
        # positive densities obey |u1| < sqrt(3) u0; (1, 2) violates the bound
        assert 2.0 > np.sqrt(3.0) * 1.0
        u_hat = np.array([[1.0], [2.0]])
        _, info = solver.solve_batch(u_hat[None], None, TAU, 0.0)
        assert not info.converged[0]
        assert info.grad_norm[0] > 0
        assert np.all(np.isnan(info.states[0]))

    def test_nonrealizable_scalar_moments_solve_with_regularization(self):
        solver = ClosureSolver(ScalarLogEntropy(), degree=1, quad=gauss_rule(20))
        u_hat = np.array([[1.0], [2.0]])
        v, info = solver.solve_batch(u_hat[None], None, TAU, 0.01)
        assert info.all_converged
        g, _ = solver.gradient(v, u_hat[None], 0.01)
        assert np.linalg.norm(g) < TAU

    def test_batch_solve_matches_single(self, euler_solver):
        duals = random_feasible_duals(euler_solver, 6)
        u = np.stack([euler_solver.reconstruct(v) for v in duals])
        v_batch, info = euler_solver.solve_batch(u, None, TAU, 0.0)
        assert info.all_converged
        assert np.all(info.grad_norm < TAU)
        for b in range(6):
            v_single, _ = euler_solver.solve_batch(u[b : b + 1], None, TAU, 0.0)
            assert v_batch[b] == pytest.approx(v_single[0], abs=1e-6)

    def test_solve_info_telemetry(self, euler_solver):
        v_star = random_feasible_duals(euler_solver, 3)
        u = np.stack([euler_solver.reconstruct(v) for v in v_star])
        _, info = euler_solver.solve_batch(u, None, TAU, 0.0)
        assert info.total_iterations >= 0
        assert info.iterations.shape == (3,)
        assert np.all(info.grad_norm < TAU)

    def test_node_states_admissible_after_solve(self, euler_solver):
        v_star = random_feasible_duals(euler_solver, 4)
        u = np.stack([euler_solver.reconstruct(v) for v in v_star])
        v, info = euler_solver.solve_batch(u, None, TAU, 0.0)
        assert info.all_converged
        states = euler_solver.node_states(v)
        assert np.all(euler_solver.model.admissible(states))


class TestNewtonPath:
    """The branches of the damped-Newton dual solve that are kept, one test each."""

    def test_singular_hessian_falls_back_to_steepest_descent(self):
        h = np.stack([2.0 * np.eye(3), np.diag([1.0, 1.0, 0.0]), np.diag([4.0, 3.0, 1.0])])
        h[2, 0, 1] = h[2, 1, 0] = 1.0
        g = np.array([[1.0, -2.0, 0.5], [0.3, 0.2, -0.1], [-1.0, 0.0, 2.0]])
        d = ClosureSolver._newton_directions(h, g)
        assert np.array_equal(d[1], -g[1])
        for b in (0, 2):
            assert np.array_equal(d[b], np.linalg.solve(h[b], -g[b]))

    def test_uphill_direction_becomes_steepest_descent(self, monkeypatch):
        solver = ClosureSolver(ScalarLogEntropy(), degree=0, quad=gauss_rule(4))
        monkeypatch.setattr(
            ClosureSolver, "_newton_directions", staticmethod(lambda h, g_flat: g_flat.copy())
        )
        # the Hessian at the minimum is u = 0.5, so unit steepest-descent steps contract
        v, info = solver.solve_batch(np.array([[[0.5]]]), np.zeros((1, 1, 1)), TAU, 0.0)
        assert info.all_converged
        assert v[0, 0, 0] == pytest.approx(1.0 + np.log(0.5), abs=1e-6)

    def test_infeasible_start_is_a_nonconverged_cell(self, euler_solver):
        duals = np.stack(random_feasible_duals(euler_solver, 3))
        u = euler_solver.reconstruct(duals)
        start = duals.copy()
        start[1, :, 2] = 0.0
        start[1, 0, 2] = 1.0  # v3 = 1 at every node, outside the dual domain
        v, info = euler_solver.solve_batch(u, start, TAU, 0.0)
        assert not info.converged[1]
        assert info.iterations[1] == 0
        assert info.grad_norm[1] == np.inf
        assert np.array_equal(v[1], start[1])
        assert np.all(np.isnan(info.states[1]))
        assert info.converged[0] and info.converged[2]

    def test_states_are_the_ansatz_of_the_returned_duals(self, euler_solver):
        duals = np.stack(random_feasible_duals(euler_solver, 4))
        u = euler_solver.reconstruct(duals)
        start = duals.copy()
        start[1:, 0, 0] += [1e-3, 0.1, 0.5]
        v, info = euler_solver.solve_batch(u, start, TAU, 0.0)
        assert info.all_converged
        assert np.unique(info.iterations).size == 4
        for b in range(4):
            assert np.array_equal(info.states[b], euler_solver.node_states(v[b]))


def reference_solve_batch(solver, u_hat, start, tol, eta):
    """The damped-Newton loop as a plain gather/scatter over the active cells.

    Every iteration re-evaluates the public objective, gradient and hessian at
    the gathered duals, and the line search backtracks every cell from the full
    step.  Returns (v, converged, iterations, grad_norm, states, backtracked,
    stalled); the last two are the cells that accepted a step below 1 and the
    cells that stopped in the line search.
    """
    u = np.asarray(u_hat, dtype=float)
    v = solver.cold_start(u) if start is None else np.array(start, dtype=float)
    b = u.shape[0]
    f = solver.objective(v, u, eta)
    iterations = np.zeros(b, dtype=int)
    grad_norm = np.full(b, np.inf)
    converged = np.zeros(b, dtype=bool)
    states = np.full((b, solver.phi.shape[0], u.shape[-1]), np.nan)
    backtracked, stalled = set(), set()
    active = np.flatnonzero(np.isfinite(f))
    for it in range(NEWTON_MAX_ITER + 1):
        if active.size == 0:
            break
        g, a = solver.gradient(v[active], u[active], eta)
        gn = np.linalg.norm(g.reshape(active.size, -1), axis=1)
        grad_norm[active] = gn
        done = gn < tol
        converged[active[done]] = True
        states[active[done]] = a[done]
        active = active[~done]
        if active.size == 0 or it == NEWTON_MAX_ITER:
            break
        g_flat = g[~done].reshape(active.size, -1)
        d = solver._newton_directions(solver.hessian(v[active], eta), g_flat)
        slope = np.einsum("bd,bd->b", g_flat, d)
        uphill = slope >= 0
        d[uphill] = -g_flat[uphill]
        slope[uphill] = -np.sum(g_flat[uphill] ** 2, axis=1)
        d = d.reshape(active.size, *u.shape[1:])
        moved = np.zeros(active.size, dtype=bool)
        for k, cell in enumerate(active):
            f0, step = f[cell], 1.0
            noise = 1e-14 * (1.0 + abs(f0))
            for _ in range(LS_MAX):
                cand = v[cell] + step * d[k]
                f_cand = solver.objective(cand[None], u[cell][None], eta)[0]
                if f_cand <= f0 + LS_SLOPE * step * slope[k] + noise:
                    v[cell], f[cell], moved[k] = cand, f_cand, True
                    if step < 1.0:
                        backtracked.add(int(cell))
                    break
                step *= LS_CONTRACTION
        iterations[active] += moved
        stalled.update(int(c) for c in active[~moved])
        active = active[moved]
    return v, converged, iterations, grad_norm, states, backtracked, stalled


class DualInterfaceOnly:
    """A model seen only through n_comp, entropy_vars, safe_state, evaluate and
    the three readers, all that the dual solve may call."""

    def __init__(self, model):
        self.n_comp = model.n_comp
        readers = ("conjugate_from", "states_from", "jacobian_from")
        for name in ("entropy_vars", "safe_state", "evaluate", *readers):
            setattr(self, name, getattr(model, name))


class TestReferencePath:
    """solve_batch's working-set loop walks the iterate path of the plain loop."""

    @staticmethod
    def mixed_batch(solver):
        """Cells 0-2 converged at the start, 3-8 cold starts, 9 an infeasible
        start, 10 non-realizable moments."""
        rng = np.random.default_rng(2024)
        at_rest = np.stack(random_feasible_duals(solver, 3, rng=rng))
        cold = np.stack(random_feasible_duals(solver, 7, scale=0.05, rng=rng))
        u = solver.reconstruct(np.concatenate([at_rest, cold, cold[:1]]))
        start = solver.cold_start(u)
        start[:3] = at_rest
        start[9, 0, 2] = 0.5  # v3 > 0 at every node
        # a density first moment beyond sqrt(3) times its mean is not
        # realizable, so the exact dual has no minimum and the cell stalls
        u[10, 1, 0] = 2.0 * np.sqrt(3.0) * u[10, 0, 0]
        return u, start

    @pytest.mark.parametrize("tol", [TAU, 0.0], ids=["tau", "never-converged"])
    def test_matches_the_plain_loop(self, euler_solver, tol):
        u, start = self.mixed_batch(euler_solver)
        v, info = euler_solver.solve_batch(u, start, tol, 0.0)
        v_ref, conv, iters, gn, states, backtracked, stalled = reference_solve_batch(
            euler_solver, u, start, tol, 0.0
        )
        # the batch covers every path of the loop
        assert iters[9] == 0 and gn[9] == np.inf
        assert 10 in stalled and not conv[10]
        assert backtracked - stalled
        if tol > 0:
            assert np.array_equal(np.flatnonzero(iters == 0), [0, 1, 2, 9])
            assert stalled == {10}
            assert np.array_equal(np.flatnonzero(~conv), [9, 10])
        else:
            assert not conv.any()
            assert np.any(iters == NEWTON_MAX_ITER)

        assert np.array_equal(info.iterations, iters)
        assert np.array_equal(info.converged, conv)
        assert np.array_equal(np.isfinite(info.grad_norm), np.isfinite(gn))
        for b in range(u.shape[0]):
            assert np.abs(v[b] - v_ref[b]).max() <= 1e-12 * np.abs(v_ref[b]).max(), b
        assert np.array_equal(np.isnan(info.states), np.isnan(states))
        for b in np.flatnonzero(conv):
            scale = np.abs(states[b]).max()
            assert np.abs(info.states[b] - states[b]).max() <= 1e-12 * scale, b

    def test_solve_reads_only_the_dual_interface(self, euler_solver):
        """The infeasible start, the stall and the converged cells come out the same."""
        u, start = self.mixed_batch(euler_solver)
        narrow = ClosureSolver(DualInterfaceOnly(euler_solver.model), 5, euler_solver.quad)
        v, info = euler_solver.solve_batch(u, start, TAU, 0.0)
        v_narrow, info_narrow = narrow.solve_batch(u, start, TAU, 0.0)
        assert not info.converged[9] and not info.converged[10]
        assert np.array_equal(v_narrow, v)
        for name in ("converged", "iterations", "grad_norm", "states"):
            assert np.array_equal(getattr(info_narrow, name), getattr(info, name), equal_nan=True)
