"""Exception types shared across the package."""


class FipmError(Exception):
    """Base class for package-specific errors."""


class ConfigError(FipmError):
    """Invalid, unknown, or incompatible configuration input."""


class DualNonConvergenceError(FipmError):
    """Newton iteration on the dual problem failed to reach tolerance."""

    def __init__(self, message, grad_norm=None, iterations=None):
        super().__init__(message)
        self.grad_norm = grad_norm
        self.iterations = iterations


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
