"""Diagonal spectral filters acting on moment vectors.

Each filter multiplies the degree-i moment row by a gain g_i in (0, 1], with
g_0 = 1 and gains nonincreasing in i.  The Fokker-Planck filter preserves
realizability for the exact dual; the exponential filter is the standard
filter of the regularized dual.  The exponential filter is a solution operator
raised to the power lambda * dt and therefore needs the time step.  The
dt-free Fokker-Planck gain exp(mu_i * lambda) uses the Sturm-Liouville
eigenvalues mu_i = -i(i+1) of the Legendre basis and inherits an exact
semigroup property: applying lambda_1 then lambda_2 equals applying
lambda_1 + lambda_2.

The order-2 exponential and Fokker-Planck (heat-semigroup) families differ by
an exact factor.  At the matched exponent lambda * dt = lambda_FP * N^2 /
|ln eps| the order-2 exponential gain is exp(-lambda_FP * i^2), so
g_FP,i = g_EXP2,i * exp(-lambda_FP * i).  Their relative mismatch on mode i
is expm1(lambda_FP * i), which stays within 5% on modes 1..N exactly when
lambda_FP * N <= ln 1.05.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import require_finite

#: log of the double-precision machine epsilon; the exponential filter damps
#: the highest mode down to machine epsilon when lambda * dt = 1.
LOG_MACHINE_EPS = float(np.log(np.finfo(float).eps))


class FilterKind(enum.Enum):
    EXPONENTIAL = "exponential"
    FOKKER_PLANCK = "fokker-planck"


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind with its strength lambda and (exponential only) order alpha."""

    kind: FilterKind
    strength: float
    order: int = 2  # the one default of the order; ExperimentConfig reads it

    def __post_init__(self):
        if not isinstance(self.kind, FilterKind):
            raise ValueError(f"unknown filter kind: {self.kind!r}")
        require_finite(**{"filter strength": self.strength, "filter order": self.order})
        if self.strength < 0:
            raise ValueError(f"filter strength must be nonnegative, got {self.strength}")
        if self.kind is FilterKind.EXPONENTIAL and self.order < 1:
            raise ValueError(f"filter order must be >= 1, got {self.order}")


def gains(spec: FilterSpec, degree: int, dt: float | None = None) -> np.ndarray:
    """Gain vector (g_0, ..., g_N) for a basis truncated at ``degree``."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    i = np.arange(degree + 1, dtype=float)
    if spec.kind is FilterKind.FOKKER_PLANCK:
        return np.exp(-i * (i + 1) * spec.strength)
    if dt is None or dt <= 0:
        raise ValueError("this filter couples to the time step; pass dt > 0")
    # the exponential solution operator at unit exponent, raised to lambda * dt
    zeta = i / degree if degree > 0 else i
    return np.exp(LOG_MACHINE_EPS * zeta**spec.order) ** (spec.strength * dt)


def apply_filter(
    spec: FilterSpec | None, u_hat: np.ndarray, dt: float | None = None
) -> np.ndarray:
    """Scale the moment rows of u_hat (..., N+1, m) by the gain vector."""
    if spec is None:
        return u_hat.copy()
    g = gains(spec, u_hat.shape[-2] - 1, dt)
    return u_hat * g[:, None]
