"""Diagonal spectral filters acting on moment vectors.

Each filter multiplies the degree-i moment row by a gain g_i in (0, 1].  Gains
are nonincreasing in i, and g_0 = 1 for every kind except ERFC: the erfc gain
at i = 0 is 1/2 * erfc(-2*sqrt(alpha)/2) < 1, so the erfc filter damps the mean
slightly.  That is a property of the filter, not a defect; it is asserted in
the tests rather than patched.

The exponential and erfc filters are solution operators raised to the power
lambda * dt and therefore need the time step; L2 and Fokker-Planck gains are
dt-free.  The Fokker-Planck gain exp(mu_i * lambda) uses the Sturm-Liouville
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
from scipy.special import erfc

from .errors import ConfigError

#: log of the double-precision machine epsilon; the exponential filter damps
#: the highest mode down to machine epsilon when lambda * dt = 1.
LOG_MACHINE_EPS = float(np.log(np.finfo(float).eps))


class FilterKind(enum.Enum):
    L2 = "l2"
    EXPONENTIAL = "exponential"
    ERFC = "erfc"
    FOKKER_PLANCK = "fokker-planck"


#: kinds whose gain exponent is lambda * dt; only these read an order
ORDERED_KINDS = (FilterKind.EXPONENTIAL, FilterKind.ERFC)


@dataclass(frozen=True)
class FilterSpec:
    """A filter kind with its strength lambda and (for EXP/ERFC) order alpha."""

    kind: FilterKind
    strength: float
    order: int = 1

    def __post_init__(self):
        if not isinstance(self.kind, FilterKind):
            raise ConfigError(f"unknown filter kind: {self.kind!r}")
        if self.strength < 0:
            raise ConfigError(f"filter strength must be nonnegative, got {self.strength}")
        if self.kind in ORDERED_KINDS and self.order < 1:
            raise ConfigError(f"filter order must be >= 1, got {self.order}")


def _base_gain(spec: FilterSpec, zeta: np.ndarray) -> np.ndarray:
    """Gain of the EXP/ERFC solution operator at unit exponent, zeta = i/N."""
    if spec.kind is FilterKind.EXPONENTIAL:
        return np.exp(LOG_MACHINE_EPS * zeta**spec.order)
    return 0.5 * erfc(2 * np.sqrt(spec.order) * (zeta - 0.5))


def gains(spec: FilterSpec, degree: int, dt: float | None = None) -> np.ndarray:
    """Gain vector (g_0, ..., g_N) for a basis truncated at ``degree``."""
    if degree < 0:
        raise ValueError(f"degree must be nonnegative, got {degree}")
    i = np.arange(degree + 1, dtype=float)
    if spec.kind is FilterKind.L2:
        return 1.0 / (1.0 + spec.strength * i**2 * (i + 1) ** 2)
    if spec.kind is FilterKind.FOKKER_PLANCK:
        return np.exp(-i * (i + 1) * spec.strength)
    if dt is None or dt <= 0:
        raise ValueError("this filter couples to the time step; pass dt > 0")
    zeta = i / degree if degree > 0 else i
    return _base_gain(spec, zeta) ** (spec.strength * dt)


def apply_filter(
    spec: FilterSpec | None, u_hat: np.ndarray, dt: float | None = None
) -> np.ndarray:
    """Scale the moment rows of u_hat (..., N+1, m) by the gain vector."""
    if spec is None:
        return u_hat.copy()
    g = gains(spec, u_hat.shape[-2] - 1, dt)
    return u_hat * g[:, None]
