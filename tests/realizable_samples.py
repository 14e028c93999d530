"""Seeded strictly realizable degree-2 moment triples, the test suite's sample set."""

import numpy as np

from fipm.realizability import monomial_to_gpc


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
