"""Orthonormal polynomial basis and Gauss quadrature for a uniform random input.

The random variable xi is uniform on [-1, 1] with probability density 1/2, so
expectations are <g> = (1/2) * int_{-1}^{1} g(xi) dxi.  Quadrature weights are
normalized to sum to one and the basis functions phi_i = sqrt(2i+1) * P_i are
orthonormal with respect to the probability measure:

    <phi_i * phi_j> = delta_ij.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre nodes and probability-normalized weights."""

    nodes: np.ndarray
    weights: np.ndarray


def gauss_rule(n_q: int) -> QuadratureRule:
    """Gauss-Legendre rule with n_q nodes; weights sum to one.

    Exact for polynomials up to degree 2*n_q - 1 against the probability
    measure of the uniform input.
    """
    if n_q < 1:
        raise ValueError(f"need at least one quadrature node, got {n_q}")
    nodes, weights = np.polynomial.legendre.leggauss(n_q)
    return QuadratureRule(nodes=nodes, weights=weights / 2.0)


def _legendre_rows(degree: int, xi: np.ndarray) -> np.ndarray:
    """P_0..P_degree at xi via the three-term recurrence; shape (*xi.shape, degree+1)."""
    out = np.empty(xi.shape + (degree + 1,))
    out[..., 0] = 1.0
    if degree >= 1:
        out[..., 1] = xi
    for k in range(1, degree):
        out[..., k + 1] = ((2 * k + 1) * xi * out[..., k] - k * out[..., k - 1]) / (k + 1)
    return out


def vandermonde(degree: int, nodes) -> np.ndarray:
    """Matrix Phi with Phi[q, i] = phi_i(nodes[q]), i = 0..degree."""
    nodes = np.asarray(nodes, dtype=float)
    if np.any(np.abs(nodes) > 1.0):
        raise ValueError("evaluation point outside [-1, 1]")
    scale = np.sqrt(2 * np.arange(degree + 1) + 1)
    return _legendre_rows(degree, nodes) * scale
