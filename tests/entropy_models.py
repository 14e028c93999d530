"""The scalar test entropy and single-call views of an entropy model's dual maps.

A model's dual side is ``evaluate`` plus the readers ``conjugate_from``,
``states_from`` and ``jacobian_from``; the views below evaluate and read in
one call, and ``ansatz_jacobian`` rebuilds the full symmetric Jacobian from
its unique entries.
"""

import numpy as np
from scipy.special import xlogy

from fipm.closures import STATE_FLOOR, jacobian_pairs


class ScalarLogEntropy:
    """s(u) = u ln u on u > 0; ansatz s'_*(v) = exp(v - 1)."""

    n_comp = 1

    def entropy(self, u):
        u = np.asarray(u, dtype=float)
        return xlogy(u[..., 0], u[..., 0])

    def entropy_vars(self, u):
        u = np.asarray(u, dtype=float)
        return np.log(u) + 1.0

    def evaluate(self, v):
        """(exp(v - 1),): the conjugate, the ansatz and its Jacobian all equal it."""
        v = np.asarray(v, dtype=float)
        with np.errstate(over="ignore"):
            return (np.exp(v[..., 0] - 1.0),)

    def conjugate_from(self, ev):
        return ev[0]

    def states_from(self, ev):
        return ev[0][..., None]

    def jacobian_from(self, ev):
        """Unique Jacobian entries, (1, ...)."""
        return ev[0][None]

    def dual_feasible(self, v):
        v = np.asarray(v, dtype=float)
        return np.isfinite(v[..., 0])

    def safe_state(self, u):
        u = np.asarray(u, dtype=float)
        return np.maximum(np.nan_to_num(u, nan=STATE_FLOOR), STATE_FLOOR)


def ansatz(model, v):
    """s'_*(v), (..., m)."""
    return model.states_from(model.evaluate(v))


def conjugate(model, v):
    """s_*(v), (...)."""
    return model.conjugate_from(model.evaluate(v))


def ansatz_jacobian(model, v):
    """D s'_*(v), (..., m, m), with each unique entry written to both its places."""
    entries = model.jacobian_from(model.evaluate(v))
    m = model.n_comp
    jac = np.empty(entries.shape[1:] + (m, m))
    for e, (k, l) in enumerate(jacobian_pairs(m)):
        jac[..., k, l] = entries[e]
        jac[..., l, k] = entries[e]
    return jac
