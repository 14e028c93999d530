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
and after.  The raster and its membership before filtering depend only on the
resolution, so they are built once per resolution and shared, read-only, by
every filter's scan.  Filtered points can land within machine noise of the
boundary, so the after-check accepts a small documented slack; the
before-check is strict.
"""

from __future__ import annotations

import functools
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
    """Strict interior membership for monomial triples; boundary is outside.

    ``m`` is an array whose last axis is (m_0, m_1, m_2), or a tuple of the
    three components as arrays that broadcast against one another.
    """
    m0, m1, m2 = m if isinstance(m, tuple) else np.moveaxis(np.asarray(m, dtype=float), -1, 0)
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


@functools.lru_cache(maxsize=2)
def _raster(resolution):
    """The u_0 = 1 slice at ``resolution``, every array read-only.

    Returns the per-axis triples (1, u1_i, 0) and (1, 0, u2_j), and the
    flattened ``u1``, ``u2`` and unfiltered membership that every filter's
    scan at this resolution shares.
    """
    u1 = np.linspace(U1_RANGE[0], U1_RANGE[1], resolution)
    u2 = np.linspace(U2_RANGE[0], U2_RANGE[1], resolution)
    ones, zeros = np.ones(resolution), np.zeros(resolution)
    axes = (np.stack([ones, u1, zeros], axis=-1), np.stack([ones, zeros, u2], axis=-1))
    shared = (np.repeat(u1, resolution), np.tile(u2, resolution), _inside(axes, 1.0, 0.0))
    for array in (*axes, *shared):
        array.flags.writeable = False
    return axes, shared


def _inside(axes, gain, slack):
    """Membership of the raster points, gains applied, decided on the two axes."""
    along_u1, along_u2 = axes
    m_u1 = gpc_to_monomial(along_u1 * gain)
    m_u2 = gpc_to_monomial(along_u2 * gain)
    m = (m_u2[None, :, 0], m_u1[:, None, 1], m_u2[None, :, 2])
    return is_realizable_monomial(m, slack=slack).ravel()


def filter_image_scan(spec: FilterSpec, resolution: int) -> ScanResult:
    """Rasterize the u_0 = 1 slice and test membership before/after filtering.

    Gains are taken at dt = 1, so a dt-coupled filter's exponent is its strength.
    The point (1, u1_i, u2_j) has m_0 and m_2 from (1, 0, u2_j) and m_1 from
    (1, u1_i, 0), gains included, so the monomials are taken on the two axes
    and meet on the (i, j) grid only inside the membership test.  The rasters
    of the last two resolutions asked for are kept: scans at one resolution
    return the same read-only ``u1``, ``u2`` and ``inside_before`` arrays, and
    each computes only its own ``inside_after``.
    """
    if resolution < 2:
        raise ValueError(f"need at least a 2x2 raster, got {resolution}")
    axes, (u1, u2, inside_before) = _raster(resolution)
    after = _inside(axes, gains(spec, 2, 1.0), AFTER_SLACK)
    return ScanResult(u1=u1, u2=u2, inside_before=inside_before, inside_after=after)
