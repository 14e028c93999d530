"""Seeded strictly realizable degree-2 moment triples, the test suite's sample set,
and the basis change from monomial moments that builds them."""

import numpy as np

from fipm.realizability import SQRT3, SQRT5


def monomial_to_gpc(m):
    """Inverse basis change, (m_0, m_1, m_2) -> (u_0, u_1, u_2)."""
    m = np.asarray(m, dtype=float)
    u0 = m[..., 0]
    u1 = SQRT3 * m[..., 1]
    u2 = SQRT5 * (3.0 * m[..., 2] - m[..., 0]) / 2.0
    return np.stack([u0, u1, u2], axis=-1)


def sample_realizable(n, seed, u0=1.0, margin=1e-6):
    """n strictly realizable triples in the orthonormal basis, seeded.

    Samples m_1 uniformly and m_2 uniformly inside its admissible band
    (m_1^2, m_0); the margin keeps samples away from the boundary.
    """
    rng = np.random.default_rng(seed)
    m1 = u0 * rng.uniform(-1 + margin, 1 - margin, n)
    t = rng.uniform(margin, 1 - margin, n)
    m2 = m1**2 / u0 + t * (u0 - m1**2 / u0)
    return monomial_to_gpc(np.stack([np.full(n, float(u0)), m1, m2], axis=-1))
