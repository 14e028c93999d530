"""Field statistics from moment data and oscillation/error metrics.

With an orthonormal basis the mean of each component is its degree-0
coefficient and the variance is the sum of squares of the higher ones
(Parseval).  The oscillation metric integrates squared central second
differences of an error field over a report region,

    delta = sqrt( sum_j dx * ((e_{j-1} - 2 e_j + e_{j+1}) / dx^2)^2 ),

summed over the cells that ``region_cells`` selects: centers in the closed
region, less the first and last grid cells, which have no two-sided stencil.
It and the grid L1/L2 norms score one error field, the numeric-minus-reference
StatField that a run writes to errors.csv, from its density (component 0) columns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class StatField:
    """Mean and variance per cell and component on a cell-centered grid."""

    x: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    def __post_init__(self):
        if self.mean.shape != self.var.shape or self.mean.shape[0] != self.x.size:
            raise ValueError("mean/var shapes do not match the grid")


def stats_from_moments(x, u_hat) -> StatField:
    """StatField of a moment array u_hat with shape (n_cells, N+1, m)."""
    u_hat = np.asarray(u_hat, dtype=float)
    x = np.asarray(x, dtype=float)
    if u_hat.ndim != 3 or u_hat.shape[0] != x.size:
        raise ValueError(f"expected (n_cells, N+1, m) moments on the grid, got {u_hat.shape}")
    mean = u_hat[:, 0, :].copy()
    var = np.sum(u_hat[:, 1:, :] ** 2, axis=1)
    return StatField(x=x, mean=mean, var=var)


def region_cells(x, region):
    """Mask of the cells with a two-sided stencil whose centers x lie in the closed region."""
    x = np.asarray(x, dtype=float)
    mask = (x >= region[0]) & (x <= region[1])
    mask[[0, -1]] = False
    return mask


def oscillation_metric(error, x, region):
    """sqrt(sum dx * d2^2) over the cells that ``region_cells`` selects."""
    x = np.asarray(x, dtype=float)
    if x.size < 3:
        raise ValueError("need at least three cells for a second difference")
    dx = x[1] - x[0]
    error = np.asarray(error, dtype=float)
    d2 = (error[:-2] - 2.0 * error[1:-1] + error[2:]) / dx**2
    return float(np.sqrt(np.sum(dx * d2[region_cells(x, region)[1:-1]] ** 2)))


def delta_metrics(errors: StatField, region):
    """Oscillation metrics (delta_mean, delta_var) of the density (component 0) errors."""
    d_mean = oscillation_metric(errors.mean[:, 0], errors.x, region)
    d_var = oscillation_metric(errors.var[:, 0], errors.x, region)
    return d_mean, d_var


def error_norms(errors: StatField):
    """Grid L1 and L2 norms of the density (component 0) mean and variance errors."""
    dx = errors.x[1] - errors.x[0]
    e_mean, e_var = errors.mean[:, 0], errors.var[:, 0]
    return {
        "l1_mean": float(np.sum(dx * np.abs(e_mean))),
        "l2_mean": float(np.sqrt(np.sum(dx * e_mean**2))),
        "l1_var": float(np.sum(dx * np.abs(e_var))),
        "l2_var": float(np.sqrt(np.sum(dx * e_var**2))),
    }
