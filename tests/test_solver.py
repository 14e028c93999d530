"""Tests for the finite-volume moment solver.

Oracles:
* initial-condition projection against brute-force sub-interval Gauss
  quadrature of the step integrand,
* Galerkin advection against an independent per-row scalar upwind march
  (the moment system decouples exactly for linear transport),
* conservation via the telescoping-sum identity recorded per step,
* deterministic (sigma = 0) runs against the exact Riemann solver.
"""

import numpy as np
import pytest

from fipm import euler
from fipm import solver as solver_module
from fipm.basis import gauss_rule, vandermonde
from fipm.closures import ClosureSolver
from fipm.errors import (
    BreakdownError,
    DualNonConvergenceError,
    FipmError,
    InadmissibleStateError,
)
from fipm.euler import UncertainShockIC, project_ic
from fipm.filters import FilterKind, FilterSpec, apply_filter, gains
from fipm.realizability import is_realizable_n2
from fipm.solver import (
    Closure,
    GridConfig,
    MomentSolver,
    kinetic_flux,
    rusanov,
)

SOD = UncertainShockIC(rho_l=1.0, p_l=1.0, rho_r=0.125, p_r=0.1, x0=0.5, sigma=0.05)
EULER = euler.EulerEntropy()


def conserved_states(ic):
    """The conserved left and right states of the initial data."""
    return tuple(EULER.conserved(w) for w in ic.primitive_states())


class AdvectionPhysics:
    """Linear transport at constant speed; any finite state is admissible."""

    n_comp = 1

    def __init__(self, speed=1.0):
        self.speed = float(speed)

    def flux(self, u):
        return self.speed * np.asarray(u, dtype=float)

    def max_speed(self, u):
        u = np.asarray(u, dtype=float)
        return np.full(u.shape[:-1], abs(self.speed))

    def admissible(self, u):
        return np.all(np.isfinite(u), axis=-1)


def sod_solver(closure, n_cells=60, degree=3, n_quad=10, t_end=0.02, **kwargs):
    grid = GridConfig(a=0.0, b=1.0, n_cells=n_cells, t_end=t_end)
    solver = MomentSolver(grid, degree, n_quad, euler.EulerEntropy(), closure=closure, **kwargs)
    u0 = project_ic(grid.centers(), degree, SOD, EULER)
    ghosts = project_ic(grid.ghost_centers(), degree, SOD, EULER)
    return solver, u0, ghosts


def uniform_solver(closure, n_cells=12, **kwargs):
    """A Sod solver whose cells and ghosts all hold the moments at x = 0.51, inside
    the uncertain band: uniform in x, uncertain in xi.  Interface fluxes between
    equal cells are bitwise equal, so a cell that no boundary data has reached
    ends a step exactly at the moments the step advanced."""
    solver, _, _ = sod_solver(closure, n_cells=n_cells, degree=5, t_end=1.0, **kwargs)
    u0 = np.repeat(project_ic([0.51], 5, SOD, EULER), n_cells, axis=0)
    return solver, u0, u0[:2].copy()


# -- grid and IC configuration ------------------------------------------------


class TestGridConfig:
    def test_geometry(self):
        grid = GridConfig(a=0.0, b=2.0, n_cells=4, t_end=1.0)
        assert grid.dx == 0.5
        np.testing.assert_allclose(grid.centers(), [0.25, 0.75, 1.25, 1.75])
        np.testing.assert_allclose(grid.ghost_centers(), [-0.25, 2.25])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(a=1.0, b=0.0, n_cells=10, t_end=1.0),
            dict(a=0.0, b=1.0, n_cells=2, t_end=1.0),
            dict(a=0.0, b=1.0, n_cells=10, t_end=-0.1),
            dict(a=0.0, b=1.0, n_cells=10, t_end=float("nan")),
            dict(a=0.0, b=1.0, n_cells=10, t_end=1.0, cfl=0.0),
            dict(a=0.0, b=1.0, n_cells=10, t_end=1.0, cfl=1.5),
        ],
    )
    def test_rejects_bad_geometry(self, kwargs):
        with pytest.raises(ValueError):
            GridConfig(**kwargs)


class TestUncertainShockIC:
    def test_conserved_states(self):
        u_l, u_r = conserved_states(SOD)
        np.testing.assert_allclose(u_l, [1.0, 0.0, 2.5])
        np.testing.assert_allclose(u_r, [0.125, 0.0, 0.25])

    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(rho_l=-1.0, p_l=1.0, rho_r=0.125, p_r=0.1, x0=0.5, sigma=0.05),
            dict(rho_l=1.0, p_l=0.0, rho_r=0.125, p_r=0.1, x0=0.5, sigma=0.05),
            dict(rho_l=1.0, p_l=1.0, rho_r=0.125, p_r=0.1, x0=0.5, sigma=-0.01),
        ],
    )
    def test_rejects_bad_states(self, kwargs):
        with pytest.raises(ValueError):
            UncertainShockIC(**kwargs)


# -- initial-condition projection ----------------------------------------------


def projection_oracle(x, degree, ic, n_sub=40):
    """Moments of the step integrand by Gauss quadrature on each smooth piece."""
    u_l, u_r = conserved_states(ic)
    xi_star = np.clip((x - ic.x0) / ic.sigma, -1.0, 1.0)
    nodes, weights = np.polynomial.legendre.leggauss(n_sub)
    out = np.zeros((degree + 1, 3))
    for lo, hi, state in [(-1.0, xi_star, u_r), (xi_star, 1.0, u_l)]:
        if hi <= lo:
            continue
        xi = 0.5 * (lo + hi) + 0.5 * (hi - lo) * nodes
        w = 0.25 * (hi - lo) * weights  # maps d(xi)/2 onto the subinterval
        phi = vandermonde(degree, xi)
        out += (phi * w[:, None]).sum(axis=0)[:, None] * state[None, :]
    return out


class TestProjectIC:
    def test_pure_sides_outside_band(self):
        centers = np.array([0.1, 0.9])
        u = project_ic(centers, 4, SOD, EULER)
        u_l, u_r = conserved_states(SOD)
        np.testing.assert_allclose(u[0, 0], u_l)
        np.testing.assert_allclose(u[1, 0], u_r)
        np.testing.assert_allclose(u[:, 1:], 0.0)

    def test_midpoint_is_half_mass_mixture(self):
        u = project_ic(np.array([SOD.x0]), 3, SOD, EULER)
        u_l, u_r = conserved_states(SOD)
        np.testing.assert_allclose(u[0, 0], 0.5 * (u_l + u_r), rtol=1e-14)

    def test_mean_follows_uniform_cdf(self):
        centers = np.linspace(0.46, 0.54, 9)
        u = project_ic(centers, 2, SOD, EULER)
        u_l, u_r = conserved_states(SOD)
        xi_star = np.clip((centers - SOD.x0) / SOD.sigma, -1.0, 1.0)
        expected = u_r + np.outer((1.0 - xi_star) / 2.0, u_l - u_r)
        np.testing.assert_allclose(u[:, 0], expected, rtol=1e-13)

    def test_matches_quadrature_oracle(self):
        centers = np.array([0.452, 0.5, 0.513, 0.549])
        degree = 6
        u = project_ic(centers, degree, SOD, EULER)
        for j, x in enumerate(centers):
            np.testing.assert_allclose(
                u[j], projection_oracle(x, degree, SOD), atol=1e-13
            )

    def test_sigma_zero_is_pointwise_step(self):
        ic = UncertainShockIC(1.0, 1.0, 0.125, 0.1, x0=0.5, sigma=0.0)
        centers = np.array([0.25, 0.75])
        u = project_ic(centers, 3, ic, EULER)
        u_l, u_r = conserved_states(ic)
        np.testing.assert_allclose(u[0, 0], u_l)
        np.testing.assert_allclose(u[1, 0], u_r)
        np.testing.assert_allclose(u[:, 1:], 0.0)

    def test_density_moments_realizable_at_degree_two(self):
        grid = GridConfig(a=0.0, b=1.0, n_cells=101, t_end=1.0)
        u = project_ic(grid.centers(), 2, SOD, EULER)
        assert np.all(is_realizable_n2(u[:, :, 0]))


# -- kinetic flux ---------------------------------------------------------------


class TestKineticFlux:
    def test_constant_state_consistency(self):
        """Equal constant-in-xi states produce the physical flux in row 0 only."""
        physics = euler.EulerEntropy()
        quad_n = 8
        from fipm.basis import gauss_rule

        quad = gauss_rule(quad_n)
        phi = vandermonde(4, quad.nodes)
        phi_w = phi * quad.weights[:, None]
        state = np.array([1.2, 0.3, 2.9])
        states = np.tile(state, (quad_n, 1))
        flux = kinetic_flux(states, states, phi_w, physics)
        np.testing.assert_allclose(flux[0], physics.flux(state), rtol=1e-14)
        np.testing.assert_allclose(flux[1:], 0.0, atol=1e-12)

    def test_advection_against_direct_quadrature(self):
        physics = AdvectionPhysics(speed=0.7)
        from fipm.basis import gauss_rule

        quad = gauss_rule(12)
        phi = vandermonde(5, quad.nodes)
        phi_w = phi * quad.weights[:, None]
        rng = np.random.default_rng(7)
        u_l = rng.normal(size=(12, 1))
        u_r = rng.normal(size=(12, 1))
        star = rusanov(u_l, u_r, physics)
        expected = np.einsum("q,qi,qk->ik", quad.weights, phi, star)
        np.testing.assert_allclose(
            kinetic_flux(u_l, u_r, phi_w, physics), expected, rtol=1e-13
        )

    def test_rusanov_is_upwind_for_positive_speed(self):
        physics = AdvectionPhysics(speed=2.0)
        u_l = np.array([[0.4], [1.5]])
        u_r = np.array([[-0.3], [2.5]])
        np.testing.assert_allclose(rusanov(u_l, u_r, physics), 2.0 * u_l, rtol=1e-14)


# -- the Galerkin closure on linear advection ------------------------------------


def advection_setup(n_cells=50, degree=3, n_quad=8, t_end=0.5, closure=Closure.SG, **kw):
    grid = GridConfig(a=0.0, b=1.0, n_cells=n_cells, t_end=t_end)
    solver = MomentSolver(grid, degree, n_quad, AdvectionPhysics(1.0), closure=closure, **kw)
    x = grid.centers()
    u0 = np.zeros((n_cells, degree + 1, 1))
    for i in range(degree + 1):
        u0[:, i, 0] = np.exp(-60.0 * (x - 0.3) ** 2) / (1.0 + i)
    ghosts = np.zeros((2, degree + 1, 1))
    return solver, u0, ghosts


class TestGalerkinAdvection:
    def test_moment_rows_decouple_into_scalar_upwind(self):
        """Each moment row must evolve as an independent upwind-transported profile."""
        solver, u0, ghosts = advection_setup()
        state, telemetry = solver.run(u0, ghosts)
        assert state.step > 5

        expected = u0.copy()
        for diag in telemetry:
            nu = diag.dt / solver.grid.dx
            shifted = np.concatenate([ghosts[:1], expected[:-1]], axis=0)
            expected = expected - nu * (expected - shifted)
        np.testing.assert_allclose(state.moments, expected, atol=1e-12)

    def test_filtered_sg_step_factors_into_filter_then_sg_step(self):
        spec = FilterSpec(FilterKind.FOKKER_PLANCK, strength=0.3)
        solver_fsg, u0, ghosts = advection_setup(t_end=1.0, filter_spec=spec)
        solver_sg, _, _ = advection_setup(t_end=1.0)
        state = solver_fsg.prepare(u0, ghosts)
        stepped, diag = solver_fsg.step(state)

        filtered = apply_filter(spec, u0, diag.dt)
        state_sg = solver_sg.prepare(filtered, ghosts)
        stepped_sg, _ = solver_sg.step(state_sg)
        np.testing.assert_allclose(stepped.moments, stepped_sg.moments, rtol=1e-14)

    def test_galerkin_rejects_regularization(self):
        with pytest.raises(ValueError, match="regularization"):
            advection_setup(eta=1e-7)

    def test_galerkin_closure_reads_the_one_closure_solver_basis(self):
        """Both closures hold a ClosureSolver: the Galerkin closure's nodal states
        are its node values, the truncated polynomial on the Gauss rule."""
        solver, u0, ghosts = advection_setup(n_cells=6, degree=3, n_quad=8)
        assert isinstance(solver.solver, ClosureSolver) and solver.closure is Closure.SG
        phi = vandermonde(3, gauss_rule(8).nodes)
        assert np.array_equal(solver.solver.phi, phi)
        solver.prepare(u0, ghosts)
        assert np.array_equal(solver._closed[1:-1], np.matmul(phi, u0))


# -- solver configuration validation ---------------------------------------------


class TestMomentSolverValidation:
    def test_unfiltered_ipm_with_eta_advances_the_moments_themselves(self):
        """eta alone decides what the dual closure advances, filter or none."""
        solver, u0, ghosts = uniform_solver(Closure.IPM, eta=1e-7)
        stepped, _ = solver.step(solver.prepare(u0, ghosts))
        assert np.array_equal(stepped.moments[1:-1], u0[1:-1])
        assert not np.array_equal(solver.solver.reconstruct(stepped.duals)[1:-1], u0[1:-1])

    def test_exact_dual_filter_other_than_fokker_planck_demands_positive_eta(self):
        spec = FilterSpec(FilterKind.EXPONENTIAL, 2.0, order=10)
        with pytest.raises(ValueError, match="eta > 0"):
            sod_solver(Closure.IPM, filter_spec=spec, eta=0.0)

    def test_quadrature_must_resolve_basis(self):
        grid = GridConfig(a=0.0, b=1.0, n_cells=10, t_end=0.1)
        with pytest.raises(ValueError, match="quadrature"):
            MomentSolver(grid, degree=4, n_quad=3, physics=euler.EulerEntropy())

    def test_dual_closures_need_the_euler_entropy(self):
        grid = GridConfig(a=0.0, b=1.0, n_cells=10, t_end=0.1)
        with pytest.raises(ValueError, match="Euler entropy"):
            MomentSolver(grid, 2, 6, AdvectionPhysics(1.0), closure=Closure.IPM)

    def test_rejects_wrong_moment_shape(self):
        solver, u0, ghosts = sod_solver(Closure.IPM)
        with pytest.raises(ValueError, match="shape"):
            solver.prepare(u0[:, :2, :], ghosts)

    @pytest.mark.parametrize(
        "rows,degrees",
        [(slice(1), slice(None)), ([0, 1, 1], slice(None)), (slice(None), slice(2))],
        ids=["one-row", "three-rows", "two-moments"],
    )
    def test_rejects_wrong_ghost_shape(self, rows, degrees):
        """One or three ghost rows, or too few moments, fail before any closure."""
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=20, degree=2, n_quad=6)
        bad = ghosts[rows][:, degrees]
        with pytest.raises(ValueError, match=rf"ghost moments have wrong shape \({bad.shape[0]}, "):
            solver.prepare(u0, bad)


NON_FINITE_INPUTS = {
    "a-inf": (lambda: GridConfig(-np.inf, 1.0, 10, 0.1), "a"),
    "t_end-inf": (lambda: GridConfig(0.0, 1.0, 10, np.inf), "t_end"),
    "eta-nan": (lambda: sod_solver(Closure.IPM, eta=np.nan), "eta"),
    "eta-inf": (lambda: sod_solver(Closure.IPM, eta=np.inf), "eta"),
    "tau-nan": (lambda: sod_solver(Closure.IPM, tau=np.nan), "tau"),
    "tau-inf": (lambda: sod_solver(Closure.IPM, tau=np.inf), "tau"),
    "exp-strength-nan": (lambda: FilterSpec(FilterKind.EXPONENTIAL, np.nan), "filter strength"),
    "fp-strength-inf": (lambda: FilterSpec(FilterKind.FOKKER_PLANCK, np.inf), "filter strength"),
    "rho_l-nan": (lambda: UncertainShockIC(np.nan, 1.0, 0.125, 0.1, 0.5, 0.05), "rho_l"),
    "p_r-inf": (lambda: UncertainShockIC(1.0, 1.0, 0.125, np.inf, 0.5, 0.05), "p_r"),
    "x0-nan": (lambda: UncertainShockIC(1.0, 1.0, 0.125, 0.1, np.nan, 0.05), "x0"),
    "sigma-nan": (lambda: UncertainShockIC(1.0, 1.0, 0.125, 0.1, 0.5, np.nan), "sigma"),
    "exp-order-nan": (lambda: FilterSpec(FilterKind.EXPONENTIAL, 1.0, order=np.nan), "filter order"),
    "gamma-inf": (lambda: euler.EulerEntropy(np.inf), "gamma"),
    "gamma-nan": (lambda: euler.EulerEntropy(np.nan), "gamma"),
    "riemann-rho_l-nan": (lambda: euler.exact_riemann([np.nan, 0, 1], [0.125, 0, 0.1], EULER), "rho_l"),
    "riemann-p_l-inf": (lambda: euler.exact_riemann([1, 0, np.inf], [0.125, 0, 0.1], EULER), "p_l"),
    "riemann-v_r-nan": (lambda: euler.exact_riemann([1, 0, 1], [0.125, np.nan, 0.1], EULER), "v_r"),
}


@pytest.mark.parametrize("build,name", NON_FINITE_INPUTS.values(), ids=list(NON_FINITE_INPUTS))
def test_non_finite_parameter_is_rejected_by_name(build, name):
    """A nan or inf parameter fails in its constructor, not as a solver failure later."""
    with pytest.raises(ValueError, match=f"^{name} must be finite, got -?(nan|inf)$"):
        build()


# -- conservation and realizability across closures -------------------------------


DUAL_CLOSURES = [
    (Closure.IPM, dict()),
    (Closure.IPM, dict(filter_spec=FilterSpec(FilterKind.FOKKER_PLANCK, 5e-5))),
    (
        Closure.IPM,
        dict(filter_spec=FilterSpec(FilterKind.EXPONENTIAL, 2.0, order=10), eta=1e-7),
    ),
]


class TestConservationAndRealizability:
    @pytest.mark.parametrize("closure,kwargs", DUAL_CLOSURES)
    def test_interior_sums_telescope_to_boundary_fluxes(self, closure, kwargs):
        solver, u0, ghosts = sod_solver(closure, **kwargs)
        state, telemetry = solver.run(u0, ghosts)
        assert state.step > 3
        assert max(diag.conservation_residual for diag in telemetry) < 1e-11

    def test_reconstructing_run_leaves_realizable_moments(self):
        """Every post-run cell admits a converged exact dual (realizability witness)."""
        spec = FilterSpec(FilterKind.FOKKER_PLANCK, 5e-5)
        solver, u0, ghosts = sod_solver(Closure.IPM, filter_spec=spec)
        state, _ = solver.run(u0, ghosts)
        _, info = solver.solver.solve_batch(state.moments, state.duals, 1e-7, 0.0)
        assert info.all_converged
        states = solver.solver.node_states(state.duals)
        assert np.all(euler.EulerEntropy().admissible(states))

    @pytest.mark.parametrize("closure,kwargs", DUAL_CLOSURES[:2])
    def test_step_advances_the_reconstructed_moments(self, closure, kwargs):
        """A reconstructing step advances exactly the ansatz moments of its duals."""
        solver, u0, ghosts = uniform_solver(closure, **kwargs)
        stepped, diag = solver.step(solver.prepare(u0, ghosts))
        reconstructed = solver.solver.reconstruct(stepped.duals)
        assert np.array_equal(stepped.moments[1:-1], reconstructed[1:-1])
        filtered = apply_filter(solver.filter_spec, u0, diag.dt)
        assert not np.array_equal(stepped.moments[1:-1], filtered[1:-1])

    @pytest.mark.parametrize(
        "spec",
        [
            FilterSpec(FilterKind.EXPONENTIAL, 2.0, order=10),
            FilterSpec(FilterKind.FOKKER_PLANCK, 0.3),
        ],
        ids=lambda spec: spec.kind.value,
    )
    def test_regularized_step_advances_the_moments_filtered_at_its_dt(self, spec):
        """With eta > 0 a step advances the moments times the gain vector at that
        step's dt; step k reaches no boundary data in cells k + 1 .. n - 2 - k."""
        solver, u0, ghosts = uniform_solver(Closure.IPM, filter_spec=spec, eta=1e-7)
        n = len(u0)
        state = solver.prepare(u0, ghosts)
        for k in range(3):
            stepped, diag = solver.step(state)
            inner = slice(k + 1, n - 1 - k)
            filtered = state.moments * gains(spec, solver.degree, diag.dt)[:, None]
            assert np.array_equal(stepped.moments[inner], filtered[inner])
            reconstructed = solver.solver.reconstruct(stepped.duals)
            assert not np.array_equal(stepped.moments[inner], reconstructed[inner])
            state = stepped

    def test_regularized_step_matches_exact_step_for_tiny_eta(self):
        solver_a, u0, ghosts = sod_solver(Closure.IPM, t_end=1.0)
        solver_b, _, _ = sod_solver(Closure.IPM, t_end=1.0, eta=1e-7)
        state_a = solver_a.prepare(u0, ghosts)
        state_b = solver_b.prepare(u0, ghosts)
        stepped_a, _ = solver_a.step(state_a)
        stepped_b, _ = solver_b.step(state_b)
        np.testing.assert_allclose(stepped_a.moments, stepped_b.moments, atol=1e-5)

    @pytest.mark.parametrize("closure,kwargs", DUAL_CLOSURES)
    def test_constant_field_is_a_fixed_point(self, closure, kwargs):
        grid = GridConfig(a=0.0, b=1.0, n_cells=8, t_end=0.1)
        solver = MomentSolver(grid, 2, 6, euler.EulerEntropy(), closure=closure, **kwargs)
        u0 = np.zeros((8, 3, 3))
        u0[:, 0] = EULER.conserved(np.array([1.0, 0.2, 1.5]))
        ghosts = u0[:2].copy()
        state = solver.prepare(u0, ghosts)
        stepped, _ = solver.step(state)
        # with a uniform field every flux difference cancels; only the filter
        # could move the moments, and rows >= 1 are zero here
        np.testing.assert_allclose(stepped.moments, u0, atol=1e-12)

    def test_boundary_cells_stay_frozen_at_dirichlet_states(self):
        solver, u0, ghosts = sod_solver(Closure.IPM, t_end=0.02)
        state, _ = solver.run(u0, ghosts)
        np.testing.assert_allclose(state.moments[0], u0[0], atol=1e-12)
        np.testing.assert_allclose(state.moments[-1], u0[-1], atol=1e-12)


# -- deterministic limit ----------------------------------------------------------


class TestDeterministicRuns:
    def test_high_moments_stay_zero_when_sigma_zero(self):
        ic = UncertainShockIC(1.0, 1.0, 0.125, 0.1, x0=0.5, sigma=0.0)
        grid = GridConfig(a=0.0, b=1.0, n_cells=50, t_end=0.05)
        solver = MomentSolver(grid, 2, 6, euler.EulerEntropy(), closure=Closure.IPM)
        u0 = project_ic(grid.centers(), 2, ic, EULER)
        ghosts = project_ic(grid.ghost_centers(), 2, ic, EULER)
        state, _ = solver.run(u0, ghosts)
        assert np.abs(state.moments[:, 1:]).max() < 1e-10

    def test_density_error_decreases_under_refinement(self):
        ic = UncertainShockIC(1.0, 1.0, 0.125, 0.1, x0=0.5, sigma=0.0)
        t_end = 0.1
        riemann = euler.exact_riemann(*ic.primitive_states(), EULER)
        errors = []
        for n_cells in (40, 80, 160):
            grid = GridConfig(a=0.0, b=1.0, n_cells=n_cells, t_end=t_end)
            solver = MomentSolver(grid, 0, 2, euler.EulerEntropy(), closure=Closure.IPM)
            u0 = project_ic(grid.centers(), 0, ic, EULER)
            ghosts = project_ic(grid.ghost_centers(), 0, ic, EULER)
            state, _ = solver.run(u0, ghosts)
            x = grid.centers()
            exact = riemann.sample_conserved((x - ic.x0) / t_end)[:, 0]
            errors.append(grid.dx * np.abs(state.moments[:, 0, 0] - exact).sum())
        assert errors[0] > errors[1] > errors[2]


# -- run control -------------------------------------------------------------------


class TestRunControl:
    def test_zero_horizon_returns_ic(self):
        solver, u0, ghosts = sod_solver(Closure.IPM, t_end=0.0)
        state, telemetry = solver.run(u0, ghosts)
        assert state.step == len(telemetry) == 0
        np.testing.assert_array_equal(state.moments, u0)

    def test_zero_horizon_checks_the_initial_moments(self):
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=20, degree=2, n_quad=6, t_end=0.0)
        with pytest.raises(ValueError, match=r"wrong shape \(5, 2, 3\)"):
            solver.run(u0[:5, :2], ghosts)

    def test_final_step_lands_exactly_on_t_end(self):
        solver, u0, ghosts = advection_setup(t_end=0.0377)
        state, telemetry = solver.run(u0, ghosts)
        assert state.t == pytest.approx(0.0377, rel=1e-12)
        assert telemetry[-1].dt <= telemetry[0].dt

    def test_telemetry_reports_newton_work(self):
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=30, t_end=0.01)
        _, telemetry = solver.run(u0, ghosts)
        for diag in telemetry:
            assert diag.total_newton_iters >= 0
            assert diag.max_grad_norm < solver.tau

    def test_second_run_with_other_ghosts_matches_a_fresh_solver(self):
        other = UncertainShockIC(rho_l=2.0, p_l=3.0, rho_r=0.5, p_r=0.2, x0=0.5, sigma=0.05)
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=30, t_end=0.01)
        grid = solver.grid
        u0_b = project_ic(grid.centers(), solver.degree, other, EULER)
        ghosts_b = project_ic(grid.ghost_centers(), solver.degree, other, EULER)
        assert not np.array_equal(ghosts, ghosts_b)
        solver.run(u0, ghosts)
        again, _ = solver.run(u0_b, ghosts_b)
        fresh, _ = sod_solver(Closure.IPM, n_cells=30, t_end=0.01)[0].run(u0_b, ghosts_b)
        assert again.step == fresh.step
        assert np.array_equal(again.moments, fresh.moments)

    def test_collapsed_time_step_is_a_located_failure(self):
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=30, t_end=0.0)
        state = solver.prepare(u0, ghosts)
        with pytest.raises(InadmissibleStateError, match="collapsed to zero at step 0") as err:
            solver.step(state)
        assert f"t = 0.0, s_prev = {state.s_prev!r}" in str(err.value)

    def test_step_cap_aborts(self, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_STEPS", 2)
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=30, t_end=0.02)
        state = solver.step(solver.step(solver.prepare(u0, ghosts))[0])[0]
        with pytest.raises(FipmError) as err:
            solver.run(u0, ghosts)
        assert str(err.value) == f"step cap reached at step 2, t = {state.t!r}"


# -- breakdown and abort paths ------------------------------------------------------


class TestBreakdown:
    def test_sg_breaks_on_shock_tube_before_first_step(self):
        """The truncated polynomial of the Sod data is inadmissible at t=0."""
        solver, u0, ghosts = sod_solver(Closure.SG, n_cells=100, degree=3)
        with pytest.raises(BreakdownError) as err:
            solver.run(u0, ghosts)
        assert err.value.step == 0
        assert 0 <= err.value.cell < 100
        assert 0 <= err.value.node < 10
        assert err.value.x == solver.grid.centers()[err.value.cell]
        assert str(err.value).endswith(f"step 0) at x = {err.value.x:.6g}")

    def test_filtered_sg_breaks_on_shock_tube_too(self):
        spec = FilterSpec(FilterKind.EXPONENTIAL, 2.0, order=10)
        solver, u0, ghosts = sod_solver(Closure.SG, n_cells=100, degree=3, filter_spec=spec)
        with pytest.raises(BreakdownError):
            solver.run(u0, ghosts)

    def test_dual_failure_aborts_with_cell_context(self):
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=20)
        u0[2, 1, 0] = 10.0  # slope so steep no nonnegative density matches it
        with pytest.raises(DualNonConvergenceError, match="worst cell 2 at x = 0.125 "):
            solver.run(u0, ghosts)

    def test_inadmissible_galerkin_ghost_names_the_ghost_centre(self):
        """Galerkin ghosts are closed and checked like any cell."""
        grid = GridConfig(0.0, 1.0, 60, 0.01)
        sod = UncertainShockIC(1.0, 1.0, 0.125, 0.1, x0=0.5, sigma=0.0)
        solver = MomentSolver(grid, 2, 6, euler.EulerEntropy(), closure=Closure.SG)
        u0 = project_ic(grid.centers(), 2, sod, EULER)
        ghosts = project_ic(grid.ghost_centers(), 2, sod, EULER)
        ghosts[1, 0, 2] = -1.0  # negative energy: no state at any node
        where = r"\(cell 1, node 0, step 0\) at x = 1.00833$"
        with pytest.raises(BreakdownError, match=where) as err:
            solver.prepare(u0, ghosts)
        assert err.value.x == grid.ghost_centers()[1]

    def test_ghost_failure_names_the_ghost_centre(self):
        solver, u0, ghosts = sod_solver(Closure.IPM, n_cells=20)
        ghosts[1, 1, 0] = 10.0
        with pytest.raises(DualNonConvergenceError, match="worst cell 1 at x = 1.025 "):
            solver.run(u0, ghosts)
