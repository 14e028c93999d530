"""Metamorphic oracles of the whole march: relations between two runs.

The stored-output pins say "the same as before"; these say "right", without a
stored value.  Each relation maps the input of one run to the input of a
second and predicts the second run's final moments from the first's.

* **Mirror.**  Map x -> a + b - x and xi -> -xi: swap the left and right
  states and move the interface mean x0 to a + b - x0.  The mirrored run's
  final moments are u'[j, i, k] = (-1)^i s_k u[n-1-j, i, k] with s = (1, -1, 1):
  cells reverse, odd Legendre modes and the momentum change sign.
* **Scaling**, at eta = 0 only.  Scale rho and p by alpha and tau by alpha.
  Velocities and sound speeds do not change, so neither does dt, and the
  entropy shifts the dual's first component by a constant, so the exact
  dual's moments scale by alpha.  The regularization term eta/2 |v|^2 is not
  invariant under that shift, so the relation does not hold at eta > 0.

Every run is 100 cells, degree 5 on 20 Gauss nodes, to t_end = 0.05: 19 steps.
"""

import numpy as np
import pytest

from fipm import (
    Closure,
    EulerEntropy,
    FilterKind,
    FilterSpec,
    GridConfig,
    MomentSolver,
    UncertainShockIC,
    project_ic,
)

GRID = GridConfig(0.0, 1.0, n_cells=100, t_end=0.05)
DEGREE, N_QUAD, SIGMA, TAU = 5, 20, 0.05, 1e-7
#: left and right (rho, p) of the Sod data
LEFT, RIGHT = (1.0, 1.0), (0.125, 0.1)
#: interface mean off the centre, so that the mirror moves it
X0 = 0.45
#: Largest difference between the predicted and the computed final moments,
#: relative to the largest moment.  Both runs take the same steps on mapped
#: data, and the two sides differ only in rounding: the mirrored run sums its
#: nodes and cells in the opposite order, and its cell centres and interface
#: differ from the mapped ones in the last bit.  Each step's rounding is a few
#: ulps of the largest moment, so 19 steps give about 1e-15 (measured 3.6e-16
#: to 1.8e-15 over both relations).  1e-13 leaves a factor of about 50 above
#: that, and stays ten orders of magnitude below a defect in the flux (measured
#: 4.2e-3 and 9.6e-2).  The scaled run's differences are of the same kind: the
#: scale is a power of 2 and exact, but the entropy's logarithm is not.
REL_BOUND = 1e-13
#: the three closures of the desk presets: (filter, eta)
CLOSURES = {
    "ipm": (None, 0.0),
    "fokker-planck": (FilterSpec(FilterKind.FOKKER_PLANCK, 5e-5), 0.0),
    "exponential": (FilterSpec(FilterKind.EXPONENTIAL, 2.0, order=10), 1e-7),
}


def march(left, right, x0, closure, tau=TAU):
    """Final SolverState and total Newton iterations of one run of the Sod family."""
    filter_spec, eta = CLOSURES[closure]
    model = EulerEntropy()
    ic = UncertainShockIC(*left, *right, x0=x0, sigma=SIGMA)
    solver = MomentSolver(
        GRID, DEGREE, N_QUAD, model, Closure.IPM, filter_spec=filter_spec, eta=eta, tau=tau
    )
    u0 = project_ic(GRID.centers(), DEGREE, ic, model)
    ghosts = project_ic(GRID.ghost_centers(), DEGREE, ic, model)
    state, telemetry = solver.run(u0, ghosts)
    return state, sum(diag.total_newton_iters for diag in telemetry)


def relative_gap(predicted, computed):
    return np.abs(predicted - computed).max() / np.abs(computed).max()


@pytest.mark.parametrize("closure", list(CLOSURES))
def test_mirror_image_run_is_the_mirrored_run(closure):
    state, newton = march(LEFT, RIGHT, X0, closure)
    mirror, mirror_newton = march(RIGHT, LEFT, GRID.a + GRID.b - X0, closure)
    assert (mirror.step, mirror_newton) == (state.step, newton)
    signs = (-1.0) ** np.arange(DEGREE + 1)[:, None] * np.array([1.0, -1.0, 1.0])
    assert relative_gap(signs * mirror.moments[::-1], state.moments) < REL_BOUND


@pytest.mark.parametrize("alpha", [4.0, 0.125])
@pytest.mark.parametrize("closure", ["ipm", "fokker-planck"])
def test_density_scaled_run_scales_its_moments(closure, alpha):
    state, newton = march(LEFT, RIGHT, X0, closure)
    scaled, scaled_newton = march(
        tuple(alpha * v for v in LEFT),
        tuple(alpha * v for v in RIGHT),
        X0,
        closure,
        tau=alpha * TAU,
    )
    assert (scaled.step, scaled_newton) == (state.step, newton)
    assert relative_gap(scaled.moments / alpha, state.moments) < REL_BOUND
