"""Finite-volume marching of filtered moment systems on a 1D periodic-free grid.

One explicit Euler step of the moment vector per cell, with kinetic numerical
fluxes: the deterministic local Lax-Friedrichs flux is evaluated at every
quadrature node between reconstructed nodal states, then projected back onto
the basis.  There are two closures, and the filter and eta alone say how the
moments are filtered.  Both share one step: filter the moments, close them into
nodal states, take the flux difference.  The Galerkin closure sg closes with
the truncated polynomial itself.  The IPM closure solves the entropy dual, and
the regularization eta alone decides what it advances: with the exact dual
(eta = 0) the *reconstructed* moments of the ansatz, which are realizable with
respect to the quadrature measure; with eta > 0 the filtered moments
themselves.  Under either closure a nodal state outside the admissible set
aborts the run.

Boundary conditions are Dirichlet: one ghost cell per side frozen at the
ghost moments ``prepare`` takes, never filtered; ghosts are closed once.

The time step dt_n = min(cfl dx / S_{n-1}, t_end - t_n) uses the fastest
signal speed S_{n-1} over the *previous* step's nodal states and the ghosts'
(the initial closure for step 0), so dt is known before any filter gain that
couples to it; the conservative update shares the same dt.  A run returns its
final SolverState, whose ``step`` counts the updates taken, and the
StepDiagnostics of every step.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from . import euler
from .basis import gauss_rule
from .closures import ClosureSolver, SolveInfo
from .errors import BreakdownError, DualNonConvergenceError, FipmError, InadmissibleStateError
from .errors import require_finite
from .filters import FilterKind, FilterSpec, apply_filter


#: steps a run may take before it aborts short of t_end
MAX_STEPS = 1_000_000


class Closure(enum.Enum):
    SG = "sg"
    IPM = "ipm"


def check_combination(closure: Closure, filter_spec: FilterSpec | None, eta: float):
    """Raise ValueError unless the closure, filter and regularization go together.

    The Galerkin closure takes any filter or none, and no regularization.  The
    exact dual (eta = 0) takes no filter or Fokker-Planck, realizable on the Gauss
    rule only above a measured strength (see ``filters``); exponential needs eta > 0.
    """
    if closure is Closure.SG:
        if eta != 0.0:
            raise ValueError("closure sg takes no regularization; set eta = 0")
    elif eta == 0.0 and filter_spec and filter_spec.kind is not FilterKind.FOKKER_PLANCK:
        raise ValueError(
            f"filter '{filter_spec.kind.value}' needs eta > 0; "
            "the exact dual takes only fokker-planck"
        )


@dataclass(frozen=True)
class GridConfig:
    """Uniform cell-centered grid on [a, b] with a CFL-limited time horizon."""

    a: float
    b: float
    n_cells: int
    t_end: float
    cfl: float = 0.5

    def __post_init__(self):
        require_finite(**vars(self))
        if not self.b > self.a:
            raise ValueError(f"need b > a, got [{self.a}, {self.b}]")
        if self.n_cells < 3:
            raise ValueError(f"need at least 3 cells, got {self.n_cells}")
        if not self.t_end >= 0:
            raise ValueError(f"need t_end >= 0, got {self.t_end}")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"need 0 < cfl <= 1, got {self.cfl}")

    @property
    def dx(self) -> float:
        return (self.b - self.a) / self.n_cells

    def centers(self) -> np.ndarray:
        return self.a + (np.arange(self.n_cells) + 0.5) * self.dx

    def ghost_centers(self) -> np.ndarray:
        return np.array([self.a - 0.5 * self.dx, self.b + 0.5 * self.dx])


def rusanov(u_l, u_r, physics):
    """Local Lax-Friedrichs flux for arbitrary leading shapes.

    0.5 (f(u_l) + f(u_r)) - 0.5 s (u_r - u_l), accumulated in place in f(u_l) in
    that operation order: a call allocates three state-sized arrays (the two
    fluxes and the jump) where the plain expression allocates seven."""
    s = np.maximum(physics.max_speed(u_l), physics.max_speed(u_r))
    s *= 0.5
    f = physics.flux(u_l)
    f += physics.flux(u_r)
    f *= 0.5
    jump = np.subtract(u_r, u_l, dtype=float)
    jump *= s[..., None]
    f -= jump
    return f


def kinetic_flux(states_l, states_r, phi_w, physics):
    """Moments of the nodewise Rusanov flux, <phi f*(u_L(xi), u_R(xi))>.

    states_* have shape (..., n_q, m); the result is (..., N+1, m).
    """
    return np.matmul(phi_w.T, rusanov(states_l, states_r, physics))


@dataclass
class StepDiagnostics:
    """Telemetry of one conservative update, one field per telemetry.csv column in order.

    ``conservation_residual``: new minus advanced moment sums plus the boundary flux
    difference, zero up to rounding; it excludes a reconstruction's defect."""

    step: int
    t: float
    dt: float
    total_newton_iters: int
    max_newton_iters: int
    max_grad_norm: float
    conservation_residual: float


@dataclass
class SolverState:
    """Marching state: time, moments, warm-start duals, lagged signal speed."""

    t: float
    step: int
    moments: np.ndarray
    duals: np.ndarray | None
    s_prev: float


class MomentSolver:
    """Explicit kinetic-flux marching of one closure on one grid."""

    def __init__(
        self,
        grid: GridConfig,
        degree: int,
        n_quad: int,
        physics,
        closure: Closure = Closure.IPM,
        filter_spec: FilterSpec | None = None,
        eta: float = 0.0,
        tau: float = 1e-7,
    ):
        if degree < 0:
            raise ValueError(f"degree must be nonnegative, got {degree}")
        if n_quad < degree + 1:
            raise ValueError(
                f"n_quad must be at least degree+1 = {degree + 1} quadrature nodes, got {n_quad}"
            )
        require_finite(eta=eta, tau=tau)
        if eta < 0:
            raise ValueError(f"eta must be nonnegative, got {eta}")
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        self.eta, self.tau = eta, tau
        check_combination(closure, filter_spec, eta)
        if closure is Closure.IPM and not isinstance(physics, euler.EulerEntropy):
            raise ValueError(
                f"closure {closure.value} solves the Euler entropy dual; use EulerEntropy"
            )
        self.grid = grid
        self._centers = grid.centers()
        self.degree = int(degree)
        self.physics = physics
        self.filter_spec = filter_spec
        self.closure = closure
        #: the march's one nodal basis, whose node values the Galerkin closure reads
        self.solver = ClosureSolver(physics, degree, gauss_rule(n_quad))
        #: the IPM closure advances its reconstructed moments exactly when eta = 0
        self._reconstructs = closure is Closure.IPM and eta == 0.0
        #: closed states of the ghosts and the cells, (n_cells + 2, n_q, m), kept
        #: from step to step: prepare writes every row, step the interior
        self._closed = None

    def _close(self, u, start, step, centers):
        """Close the moments ``u`` of the cells at ``centers`` into
        ``(states, duals, info)``: nodal states (n, n_q, m), duals (None under the
        Galerkin closure) and the solve info.  The dual solve only reports;
        raise here at the worst unconverged cell, then at the first
        inadmissible node."""
        if self.closure is Closure.SG:  # the truncated polynomial itself, no solve
            duals, n = None, u.shape[0]
            info = SolveInfo(
                np.ones(n, bool), np.zeros(n, int), np.zeros(n), self.solver.node_values(u)
            )
        else:
            duals, info = self.solver.solve_batch(u, start, self.tau, self.eta)
        if not info.all_converged:
            bad = np.flatnonzero(~info.converged)
            worst = bad[np.argmax(info.grad_norm[bad])]
            raise DualNonConvergenceError(
                f"dual solve failed in {bad.size} cell(s) at step {step}; worst cell "
                f"{worst} at x = {centers[worst]:.6g} with gradient norm "
                f"{info.grad_norm[worst]:.3e}"
            )
        ok = self.physics.admissible(info.states)
        if not np.all(ok):
            cell, node = np.argwhere(~ok)[0]
            raise BreakdownError(
                f"ansatz left the admissible set (cell {cell}, node {node}, step {step}) "
                f"at x = {centers[cell]:.6g}",
                cell=int(cell),
                node=int(node),
                step=int(step),
                x=float(centers[cell]),
            )
        return info.states, duals, info

    # -- setup ----------------------------------------------------------------

    def prepare(self, u0, ghost_moments) -> SolverState:
        """Initial marching state; closes the ghosts and the initial cells once."""
        u0 = np.array(u0, dtype=float)
        ghost_moments = np.asarray(ghost_moments, dtype=float)
        rows = (self.degree + 1, self.physics.n_comp)
        if u0.shape != (self.grid.n_cells, *rows):
            raise ValueError(f"initial moments have wrong shape {u0.shape}")
        if ghost_moments.shape != (2, *rows):
            raise ValueError(f"ghost moments have wrong shape {ghost_moments.shape}")
        ghost_states, _, _ = self._close(ghost_moments, None, 0, self.grid.ghost_centers())
        self._closed = np.empty((self.grid.n_cells + 2, *ghost_states.shape[1:]))
        self._closed[[0, -1]] = ghost_states
        states, duals, _ = self._close(u0, None, 0, self._centers)
        self._closed[1:-1] = states
        return SolverState(t=0.0, step=0, moments=u0, duals=duals, s_prev=self._max_speed())

    def _max_speed(self) -> float:
        """Fastest signal speed over the kept closed states, ghosts included."""
        s = float(np.max(self.physics.max_speed(self._closed)))
        if not np.isfinite(s) or s <= 0:
            raise InadmissibleStateError(f"nonpositive or non-finite signal speed {s}")
        return s

    # -- one conservative update ----------------------------------------------

    def step(self, state: SolverState):
        dt = min(self.grid.cfl * self.grid.dx / state.s_prev, self.grid.t_end - state.t)
        if dt <= 0:
            raise InadmissibleStateError(
                f"time step collapsed to zero at step {state.step} "
                f"(t = {state.t!r}, s_prev = {state.s_prev!r})"
            )
        u_bar = apply_filter(self.filter_spec, state.moments, dt)
        states, duals, info = self._close(u_bar, state.duals, state.step, self._centers)
        base = np.matmul(self.solver.phi_w.T, states) if self._reconstructs else u_bar

        self._closed[1:-1] = states
        flux = kinetic_flux(self._closed[:-1], self._closed[1:], self.solver.phi_w, self.physics)
        u_new = base - dt / self.grid.dx * (flux[1:] - flux[:-1])
        if not np.all(np.isfinite(u_new)):
            raise InadmissibleStateError(f"non-finite moments after step {state.step}")

        residual = u_new.sum(axis=0) - base.sum(axis=0) + dt / self.grid.dx * (flux[-1] - flux[0])
        diag = StepDiagnostics(
            step=state.step,
            t=state.t + dt,
            dt=dt,
            total_newton_iters=info.total_iterations,
            max_newton_iters=int(info.iterations.max()),
            max_grad_norm=float(info.grad_norm.max()),
            conservation_residual=float(np.abs(residual).max()),
        )
        new_state = SolverState(
            t=state.t + dt,
            step=state.step + 1,
            moments=u_new,
            duals=duals,
            s_prev=self._max_speed(),
        )
        return new_state, diag

    # -- full march -------------------------------------------------------------

    def run(self, u0, ghost_moments) -> tuple[SolverState, list[StepDiagnostics]]:
        """March to grid.t_end in at most MAX_STEPS steps; return the end state and telemetry."""
        t_end = self.grid.t_end
        state = self.prepare(u0, ghost_moments)
        telemetry = []
        eps_t = 1e-12 * max(t_end, 1.0)
        while state.t < t_end - eps_t:
            state, diag = self.step(state)
            telemetry.append(diag)
            if state.step >= MAX_STEPS:
                raise FipmError(f"step cap reached at step {state.step}, t = {state.t!r}")
        return state, telemetry
