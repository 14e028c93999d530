"""End-to-end acceptance checks, one test per criterion.

Each test wraps its assertions in the `criterion` context manager so a single
pass/fail line per criterion is printed in the terminal summary.  The
shock-tube comparisons run at desk scale (400 cells, degree 5, 20 quadrature
nodes) and take a couple of seconds per run; expensive runs are shared
through module-scoped fixtures, and a run that is a shipped desk preset is taken
from the session's ``desk_run`` rather than run again.
"""

import time
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest
from conftest import record_criterion
from entropy_models import ScalarLogEntropy
from realizable_samples import sample_realizable
from test_closures import fd_gradient, fd_jacobian, random_feasible_duals
from test_euler import star_pressure_bisect

from fipm import euler
from fipm.basis import gauss_rule
from fipm.closures import ClosureSolver
from fipm.config import ExperimentConfig, load_config
from fipm.errors import BreakdownError
from fipm.euler import project_ic
from fipm.filters import LOG_MACHINE_EPS, FilterKind, FilterSpec, gains
from fipm.realizability import filter_image_scan, is_realizable_n2
from fipm.stats import StatField, delta_metrics, stats_from_moments

DESK = dict(n_cells=400, degree=5, n_quad=20, t_end=0.14)
SHOCK_REGION = (0.7, 0.8)
RAREFACTION_REGION = (0.35, 0.45)


def fd_gradient_richardson(fn, x, eps=1e-5):
    """Richardson-extrapolated central differences, accurate to O(eps^4).

    Plain central differences cannot meet a uniform 1e-6 relative target on
    the exponentially nonlinear conjugates: truncation dominates for any
    single step size once dual coefficients get large.
    """
    coarse = fd_gradient(fn, x, eps=eps)
    fine = fd_gradient(fn, x, eps=eps / 2.0)
    return (4.0 * fine - coarse) / 3.0


def fd_jacobian_richardson(fn, x, eps=1e-5):
    coarse = fd_jacobian(fn, x, eps=eps)
    fine = fd_jacobian(fn, x, eps=eps / 2.0)
    return (4.0 * fine - coarse) / 3.0


def moderate_interior_points(solver, n, rng, cap=1e3):
    """Feasible dual points whose reconstructed moments stay below ``cap``.

    Feasibility alone does not bound the moment map: an unconstrained draw
    can reconstruct to moments of magnitude 1e19 and beyond.  Pairing such
    a vector into the gradient makes the finite-difference Hessian signal
    (H * dx, order 1) smaller than one ulp of the gradient entries, so the
    differences cancel to exactly zero and the oracle collapses.  Rejection
    keeps the comparison meaningful; the analytic calculus itself carries
    no magnitude restriction.
    """
    points = []
    while len(points) < n:
        for v_hat in random_feasible_duals(solver, n, rng=rng):
            if len(points) < n and np.abs(solver.reconstruct(v_hat)).max() <= cap:
                points.append(v_hat)
    return points


@contextmanager
def criterion(number, title):
    try:
        yield
    except BaseException:
        record_criterion(number, title, False)
        raise
    record_criterion(number, title, True)


def desk_config(closure, **overrides):
    params = dict(
        a=0.0, b=1.0, x0=0.5, sigma=0.05,
        rho_l=1.0, p_l=1.0, rho_r=0.125, p_r=0.1,
        closure=closure, **DESK,
    )
    params.update(overrides)
    return ExperimentConfig(**params)


def run_stats(cfg: ExperimentConfig) -> StatField:
    solver = cfg.build_solver()
    grid, ic = cfg.grid(), cfg.ic()
    u0 = project_ic(grid.centers(), cfg.degree, ic, solver.physics)
    ghosts = project_ic(grid.ghost_centers(), cfg.degree, ic, solver.physics)
    state, _ = solver.run(u0, ghosts)
    return stats_from_moments(grid.centers(), state.moments)


def preset_stats(desk_run, preset, cfg: ExperimentConfig) -> StatField:
    """The stats of cfg, taken from the session's run of ``preset`` where cfg is that preset."""
    if cfg == replace(load_config(preset), output_dir=cfg.output_dir):
        return desk_run(preset).stat_field()
    return run_stats(cfg)


@pytest.fixture(scope="module")
def desk_reference() -> StatField:
    cfg = desk_config("ipm")
    x = cfg.grid().centers()
    mean, var = euler.reference_statistics(x, 0.14, cfg.ic(), euler.EulerEntropy())
    return StatField(x=x, mean=mean, var=var)


def shock_deltas(numeric: StatField, reference: StatField):
    """delta_metrics over SHOCK_REGION of the numeric-minus-reference error field."""
    errors = StatField(numeric.x, numeric.mean - reference.mean, numeric.var - reference.var)
    return delta_metrics(errors, SHOCK_REGION)


@pytest.fixture(scope="module")
def regularization_stats():
    """Unfiltered regularized runs for eta from 1e-2 down to 1e-7."""
    return {eta: run_stats(desk_config("ipm", eta=eta)) for eta in (1e-2, 1e-3, 1e-5, 1e-7)}


@pytest.fixture(scope="module")
def strength_sweep_stats(desk_run):
    """Exponential-filter runs (order 10, eta=1e-7) over the strength grid; strength 2
    is the sod-fipm-exp-desk preset."""
    out = {}
    for strength in (0.0, 0.5, 1.0, 2.0, 4.0):
        cfg = desk_config(
            "ipm",
            filter="exponential",
            filter_strength=strength,
            filter_order=10,
            eta=1e-7,
        )
        out[strength] = preset_stats(desk_run, "sod-fipm-exp-desk", cfg)
    return out


@pytest.fixture(scope="module")
def unfiltered_ipm_stats(desk_run):
    return preset_stats(desk_run, "sod-ipm-desk", desk_config("ipm"))


def test_criterion_1_heat_semigroup_filter_preserves_sampled_moments():
    with criterion(1, "sampled degree-2 moments stay realizable under the heat-semigroup filter"):
        start = time.perf_counter()
        samples = sample_realizable(1000, seed=2024)
        assert np.all(is_realizable_n2(samples))
        for strength in (0.01, 0.1, 1.0):
            g = gains(FilterSpec(FilterKind.FOKKER_PLANCK, strength), degree=2)
            filtered = samples * g
            kept = is_realizable_n2(filtered, slack=1e-12)
            assert np.all(kept), f"strength {strength}: {np.sum(~kept)} samples escaped"
        assert time.perf_counter() - start < 1.0


def test_criterion_2_scan_dichotomy_between_filter_families():
    with criterion(2, "raster scan: exponential filter escapes, heat-semigroup filter never"):
        start = time.perf_counter()
        exp_spec = FilterSpec(FilterKind.EXPONENTIAL, 0.2, order=7)
        exp_scan = filter_image_scan(exp_spec, resolution=400)
        assert exp_scan.n_escaped >= 1
        for strength in (0.05, 0.1, 0.2, 0.3):
            fp_scan = filter_image_scan(
                FilterSpec(FilterKind.FOKKER_PLANCK, strength), resolution=400
            )
            assert fp_scan.n_escaped == 0, f"strength {strength}"
        assert time.perf_counter() - start < 10.0


def test_criterion_3_dual_solver_calculus_and_round_trip():
    with criterion(3, "dual gradient/Hessian match finite differences; moment round trip"):
        start = time.perf_counter()
        tau = 1e-7
        for model in (ScalarLogEntropy(), euler.EulerEntropy()):
            solver = ClosureSolver(model, degree=5, quad=gauss_rule(20))
            points = moderate_interior_points(solver, 100, np.random.default_rng(11))
            shape = points[0].shape
            for k, v_hat in enumerate(points):
                u_hat = solver.reconstruct(points[(k + 1) % len(points)])
                flat = v_hat.ravel()
                grad = solver.gradient(v_hat[None], u_hat[None], 0.0)[0].ravel()
                grad_fd = fd_gradient_richardson(
                    lambda z: solver.objective(z.reshape(shape)[None], u_hat[None], 0.0)[0],
                    flat,
                )
                scale = max(float(np.linalg.norm(grad)), 1.0)
                assert np.linalg.norm(grad_fd - grad) / scale < 1e-6
                hess = solver.hessian(v_hat[None], 0.0)[0]
                hess_fd = fd_jacobian_richardson(
                    lambda z: solver.gradient(z.reshape(shape)[None], u_hat[None], 0.0)[0].ravel(),
                    flat,
                )
                assert np.linalg.norm(hess_fd - hess) / np.linalg.norm(hess) < 1e-5
            for v_hat in points[:20]:
                u_hat = solver.reconstruct(v_hat)
                solved, info = solver.solve_batch(u_hat[None], None, tau, 0.0)
                assert info.all_converged
                back = solver.reconstruct(solved[0])
                assert np.abs(back - u_hat).max() < 10 * tau
        assert time.perf_counter() - start < 30.0


def test_criterion_4_regularization_limit(regularization_stats):
    with criterion(4, "solution approaches the exact closure as eta decreases"):
        stats = regularization_stats
        x = stats[1e-7].x
        dx = x[1] - x[0]
        reference_mean = stats[1e-7].mean[:, 0]
        distances = [
            float(np.sum(dx * np.abs(stats[eta].mean[:, 0] - reference_mean)))
            for eta in (1e-2, 1e-3, 1e-5)
        ]
        assert distances[0] > distances[1] > distances[2]

        mask = (x >= RAREFACTION_REGION[0]) & (x <= RAREFACTION_REGION[1])
        var_big = float(np.sum(dx * stats[1e-2].var[mask, 0]))
        var_small = float(np.sum(dx * stats[1e-7].var[mask, 0]))
        assert var_big < var_small


def test_criterion_5_deterministic_convergence_and_star_state():
    with criterion(5, "deterministic run converges to the exact solution under refinement"):
        prim_l = np.array([1.0, 0.0, 1.0])
        prim_r = np.array([0.125, 0.0, 0.1])
        solution = euler.exact_riemann(prim_l, prim_r, euler.EulerEntropy())
        oracle = star_pressure_bisect(prim_l, prim_r, gamma=1.4)
        assert abs(solution.p_star - oracle) < 1e-6
        assert abs(solution.p_star - 0.30313) < 1e-5

        errors = []
        for n_cells in (100, 200, 400):
            cfg = desk_config("ipm", sigma=0.0, n_cells=n_cells)
            stats = run_stats(cfg)
            exact = solution.sample_conserved((stats.x - 0.5) / 0.14)[:, 0]
            dx = stats.x[1] - stats.x[0]
            errors.append(float(np.sum(dx * np.abs(stats.mean[:, 0] - exact))))
        assert errors[0] > errors[1] > errors[2]


def test_criterion_6_filter_benefit_at_the_shock(
    unfiltered_ipm_stats, strength_sweep_stats, desk_reference
):
    with criterion(6, "exponential filtering lowers both oscillation measures at the shock"):
        d_plain = shock_deltas(unfiltered_ipm_stats, desk_reference)
        d_filtered = shock_deltas(strength_sweep_stats[2.0], desk_reference)
        assert d_filtered[0] < d_plain[0]
        assert d_filtered[1] < d_plain[1]

        strengths = sorted(strength_sweep_stats)
        deltas = [shock_deltas(strength_sweep_stats[s], desk_reference) for s in strengths]
        best_mean = strengths[int(np.argmin([d[0] for d in deltas]))]
        best_var = strengths[int(np.argmin([d[1] for d in deltas]))]
        assert best_var <= best_mean


def test_criterion_7_galerkin_breakdown_is_detected():
    with criterion(7, "plain Galerkin closure on the shock tube aborts with a breakdown error"):
        cfg = load_config("sod-ipm", overrides=["closure=sg"])
        solver = cfg.build_solver()
        grid, ic = cfg.grid(), cfg.ic()
        u0 = project_ic(grid.centers(), cfg.degree, ic, solver.physics)
        ghosts = project_ic(grid.ghost_centers(), cfg.degree, ic, solver.physics)
        with pytest.raises(BreakdownError) as err:
            solver.run(u0, ghosts)
        assert err.value.step == 0
        assert 0 <= err.value.cell < cfg.n_cells


def test_criterion_8_conservation_and_realizability_witness():
    with criterion(8, "50 reconstructing steps conserve moments and stay realizable"):
        cfg = desk_config("ipm", filter="fokker-planck", filter_strength=5e-5)
        solver = cfg.build_solver()
        grid, ic = cfg.grid(), cfg.ic()
        u0 = project_ic(grid.centers(), cfg.degree, ic, solver.physics)
        ghosts = project_ic(grid.ghost_centers(), cfg.degree, ic, solver.physics)
        state = solver.prepare(u0, ghosts)
        for _ in range(50):
            state, diag = solver.step(state)
            assert diag.conservation_residual < 1e-11
            _, info = solver.solver.solve_batch(state.moments, state.duals, cfg.tau, 0.0)
            assert info.all_converged, f"step {state.step}"


def test_criterion_9_order_two_exponential_reproduces_semigroup_gains():
    """At the matched exponent lambda * dt = lambda_FP * N^2 / |ln eps| the
    order-2 exponential gain exp(ln eps * (i/N)^2)^(lambda * dt) becomes
    exp(-lambda_FP * i^2), so the heat-semigroup gain exp(-lambda_FP * i(i+1))
    is that gain times exactly exp(-lambda_FP * i).  The relative mismatch on
    mode i is therefore expm1(lambda_FP * i), and the 5% bound holds on modes
    1..N exactly when lambda_FP * N <= ln 1.05.  At lambda_FP = 0.04, N = 10
    it is out of reach (0.49 at mode 10); at the strength and degree of the
    shipped Fokker-Planck presets it holds.  Both filters take the same
    strength here, so the matched time step is dt = N^2 / |ln eps|."""
    with criterion(
        9,
        "order-2 exponential gains equal heat-semigroup gains up to exp(-strength * i)"
        " and match them within 5% at the Fokker-Planck preset strengths",
    ):

        def mismatch(strength, degree):
            dt = degree**2 / abs(LOG_MACHINE_EPS)
            exp_gains = gains(
                FilterSpec(FilterKind.EXPONENTIAL, strength, order=2), degree, dt=dt
            )
            fp_gains = gains(FilterSpec(FilterKind.FOKKER_PLANCK, strength), degree)
            modes = np.arange(degree + 1)
            np.testing.assert_allclose(
                fp_gains, exp_gains * np.exp(-strength * modes), rtol=1e-14, atol=0
            )
            relative = (exp_gains[1:] - fp_gains[1:]) / fp_gains[1:]
            np.testing.assert_allclose(
                relative, np.expm1(strength * modes[1:]), rtol=0, atol=1e-14
            )
            return relative

        for degree in range(1, 11):
            relative = mismatch(0.04, degree)
        # 0.04 * 10 > ln 1.05: the bound is out of reach at this strength
        assert relative[-1] > 0.05

        for preset in ("sod-fipm-fp", "sod-fipm-fp-desk"):
            cfg = load_config(preset)
            relative = mismatch(cfg.filter_strength, cfg.degree)
            assert relative.max() <= 0.05, (
                f"{preset}: max relative gain mismatch {relative.max():.4f} at mode "
                f"{1 + int(np.argmax(relative))}"
            )
