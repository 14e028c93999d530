"""Realizable moment triples at truncation order N = 2 and filter-image scans.

A triple is realizable when it is the first three moments, <u>, <xi u>,
<xi^2 u>, of some strictly positive density on [-1, 1].  Membership is
decided in monomial coordinates m = (m_0, m_1, m_2) via the strict interior
conditions

    m_0 > 0,    m_0 m_2 > m_1^2,    m_0 > m_2,

which are the positive-definiteness of the Hankel matrix together with the
support constraint <(1 - xi^2) u> > 0.  The basis change from the
orthonormal coefficients (u_0, u_1, u_2) is an exact linear map.

The scan rasterizes the slice u_0 = 1 of the coefficient space, applies the
order-2 gain vector of a filter to every point, and reports membership before
and after.  Filtered points can land within machine noise of the boundary, so
the after-check accepts a small documented slack; the before-check is strict.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .filters import FilterSpec, gains

SQRT3 = np.sqrt(3.0)
SQRT5 = np.sqrt(5.0)

#: scan box of the u_0 = 1 slice: u_1 symmetric, u_2 covering the full slice
U1_RANGE = (-1.2, 1.2)
U2_RANGE = (-SQRT5 / 2, SQRT5)

#: membership slack of the filtered image, which can land within rounding of the boundary
AFTER_SLACK = 1e-12


def gpc_to_monomial(u_hat):
    """(u_0, u_1, u_2) -> (m_0, m_1, m_2) with m_k = <xi^k u>."""
    u_hat = np.asarray(u_hat, dtype=float)
    m0 = u_hat[..., 0]
    m1 = u_hat[..., 1] / SQRT3
    m2 = (2.0 * u_hat[..., 2] / SQRT5 + u_hat[..., 0]) / 3.0
    return np.stack([m0, m1, m2], axis=-1)


def is_realizable_monomial(m, slack=0.0):
    """Strict interior membership for monomial triples; boundary is outside."""
    m = np.asarray(m, dtype=float)
    m0, m1, m2 = m[..., 0], m[..., 1], m[..., 2]
    return (m0 > -slack) & (m0 * m2 - m1**2 > -slack) & (m0 - m2 > -slack)


def is_realizable_n2(u_hat, slack=0.0):
    """Membership for orthonormal-basis triples (u_0, u_1, u_2)."""
    return is_realizable_monomial(gpc_to_monomial(u_hat), slack=slack)


@dataclass(frozen=True)
class ScanResult:
    """Flattened raster of the u_0 = 1 slice with membership flags."""

    u1: np.ndarray
    u2: np.ndarray
    inside_before: np.ndarray
    inside_after: np.ndarray

    @property
    def n_inside(self) -> int:
        return int(np.sum(self.inside_before))

    @property
    def n_escaped(self) -> int:
        """Points that were realizable and left the set under filtering."""
        return int(np.sum(self.inside_before & ~self.inside_after))


def filter_image_scan(spec: FilterSpec, resolution=400) -> ScanResult:
    """Rasterize the u_0 = 1 slice and test membership before/after filtering.

    Gains are taken at dt = 1, so a dt-coupled filter's exponent is its strength.
    """
    if resolution < 2:
        raise ValueError(f"need at least a 2x2 raster, got {resolution}")
    g = gains(spec, 2, 1.0)
    u1 = np.linspace(U1_RANGE[0], U1_RANGE[1], resolution)
    u2 = np.linspace(U2_RANGE[0], U2_RANGE[1], resolution)
    grid_u1, grid_u2 = np.meshgrid(u1, u2, indexing="ij")
    pts = np.stack([np.ones_like(grid_u1), grid_u1, grid_u2], axis=-1)
    before = is_realizable_n2(pts)
    after = is_realizable_n2(pts * g, slack=AFTER_SLACK)
    return ScanResult(
        u1=grid_u1.ravel(),
        u2=grid_u2.ravel(),
        inside_before=before.ravel(),
        inside_after=after.ravel(),
    )
