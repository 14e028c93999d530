"""Exception types shared across the package, and the finite-input check."""

import math


def require_finite(**values):
    """Raise ValueError naming the first of ``values`` that is nan or infinite."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite, got {value}")


class FipmError(Exception):
    """Base class for package-specific errors."""


class ConfigError(FipmError):
    """Invalid, unknown, or incompatible configuration input."""


class DualNonConvergenceError(FipmError):
    """Newton iteration on the dual problem failed to reach tolerance."""


class InadmissibleStateError(FipmError):
    """A physical state violated the admissibility conditions."""


class BreakdownError(InadmissibleStateError):
    """A closure's nodal ansatz state left the admissible set at a quadrature node.

    Carries the cell, node, step and cell centre x that locate the failure.
    """

    def __init__(self, message, cell=None, node=None, step=None, x=None):
        super().__init__(message)
        self.cell = cell
        self.node = node
        self.step = step
        self.x = x


class VacuumError(InadmissibleStateError):
    """Riemann data generate vacuum; the exact solution is not defined."""
