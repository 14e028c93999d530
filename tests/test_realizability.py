"""Membership, basis-change, and filter-image contracts for order-2 triples."""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from realizable_samples import monomial_to_gpc, sample_realizable

from fipm.basis import gauss_rule, vandermonde
from fipm.filters import FilterKind, FilterSpec
from fipm.realizability import (
    U2_RANGE,
    filter_image_scan,
    gpc_to_monomial,
    is_realizable_monomial,
    is_realizable_n2,
)


class TestBasisChange:
    def test_constant_density(self):
        # u(xi) = 1: moments <1, xi, xi^2> = (1, 0, 1/3)
        m = gpc_to_monomial(np.array([1.0, 0.0, 0.0]))
        assert m == pytest.approx([1.0, 0.0, 1.0 / 3.0], abs=1e-15)

    def test_quadrature_oracle(self):
        # independent check: monomial moments of the ansatz via quadrature
        rng = np.random.default_rng(3)
        rule = gauss_rule(20)
        phi = vandermonde(2, rule.nodes)
        for _ in range(10):
            u_hat = rng.normal(size=3)
            density = phi @ u_hat
            m_quad = [np.sum(rule.weights * rule.nodes**k * density) for k in range(3)]
            assert gpc_to_monomial(u_hat) == pytest.approx(m_quad, abs=1e-13)

    @given(
        u0=st.floats(-5, 5),
        u1=st.floats(-5, 5),
        u2=st.floats(-5, 5),
    )
    @settings(max_examples=200, deadline=None)
    def test_round_trip(self, u0, u1, u2):
        u_hat = np.array([u0, u1, u2])
        assert monomial_to_gpc(gpc_to_monomial(u_hat)) == pytest.approx(
            u_hat, rel=1e-12, abs=1e-12
        )

    def test_batched(self):
        rng = np.random.default_rng(4)
        u = rng.normal(size=(7, 3))
        m = gpc_to_monomial(u)
        for j in range(7):
            assert m[j] == pytest.approx(gpc_to_monomial(u[j]), abs=1e-15)


class TestMembership:
    def test_hand_cases(self):
        assert is_realizable_n2(np.array([1.0, 0.0, 0.0]))  # constant density
        assert not is_realizable_n2(np.array([1.0, 2.0, 0.0]))  # m1^2 > m0 m2
        assert is_realizable_monomial(np.array([1.0, 0.5, 0.3]))
        assert not is_realizable_monomial(np.array([1.0, 0.0, 1.0]))  # m2 = m0
        assert not is_realizable_monomial(np.array([-1.0, 0.0, 0.3]))

    def test_boundary_is_outside(self):
        # a Dirac mass at xi* sits on the boundary: m = (1, xi*, xi*^2)
        for xi_star in (-0.7, 0.0, 0.4):
            m = np.array([1.0, xi_star, xi_star**2])
            assert not is_realizable_monomial(m)
            assert is_realizable_monomial(m, slack=1e-9)

    @given(
        c=st.floats(1e-3, 1e3),
        m1=st.floats(-2, 2, allow_subnormal=False),
        m2=st.floats(-2, 2, allow_subnormal=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, c, m1, m2):
        # scale invariance is exact only in real arithmetic: a point within
        # rounding distance of a defining boundary can change side when each
        # entry is rounded once more (and c * m2 can even flush subnormal
        # moments to 0.0), so the property is stated clear of the boundaries
        assume(abs(m2 - m1 * m1) > 1e-9)
        assume(abs(1.0 - m2) > 1e-9)
        m = np.array([1.0, m1, m2])
        assert is_realizable_monomial(m) == is_realizable_monomial(c * m)

    def test_scaling_underflow_lands_on_boundary(self):
        m = np.array([1.0, 0.0, 5e-324])
        assert is_realizable_monomial(m)
        assert 0.5 * 5e-324 == 0.0
        assert not is_realizable_monomial(0.5 * m)

    def test_positive_density_moments_are_realizable(self):
        # moments of explicit positive densities must pass the strict check
        rng = np.random.default_rng(5)
        xs = np.linspace(-1, 1, 2001)
        for _ in range(10):
            coef = rng.uniform(0.2, 2.0, 3)
            density = coef[0] + coef[1] * np.sin(3 * xs) ** 2 + coef[2] * xs**2
            m = [np.trapezoid(xs**k * density, xs) / 2 for k in range(3)]
            assert is_realizable_monomial(np.array(m))


class TestSampling:
    def test_samples_are_strictly_realizable(self):
        u = sample_realizable(1000, seed=42)
        assert u.shape == (1000, 3)
        assert np.all(is_realizable_n2(u))
        m = gpc_to_monomial(u)
        assert np.all(m[:, 0] * m[:, 2] - m[:, 1] ** 2 > 0)

    def test_seed_reproducibility(self):
        assert sample_realizable(50, seed=9) == pytest.approx(sample_realizable(50, seed=9))
        assert not np.allclose(sample_realizable(50, seed=9), sample_realizable(50, seed=10))

    def test_scaled_mean(self):
        u = sample_realizable(200, seed=1, u0=2.5)
        assert np.all(u[:, 0] == 2.5)
        assert np.all(is_realizable_n2(u))


class TestFokkerPlanckTheorem:
    @pytest.mark.parametrize("lam", [0.05, 0.1, 0.2, 0.3, 1.0])
    def test_filtering_preserves_sampled_triples(self, lam):
        u = sample_realizable(1000, seed=7)
        spec = FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=lam)
        filtered = u * np.array([1.0, np.exp(-2 * lam), np.exp(-6 * lam)])
        assert np.all(is_realizable_n2(filtered, slack=1e-12))
        # same statement through the scan machinery
        scan = filter_image_scan(spec, resolution=150)
        assert scan.n_escaped == 0

    def test_exponential_filter_escapes(self):
        spec = FilterSpec(kind=FilterKind.EXPONENTIAL, strength=0.2, order=7)
        scan = filter_image_scan(spec, resolution=200)
        assert scan.n_inside > 0
        assert scan.n_escaped > 0
        # a concrete witness: (1, 1.1, 0.5) is realizable, its image is not
        witness = np.array([1.0, 1.1, 0.5])
        assert is_realizable_n2(witness)
        from fipm.filters import gains

        g = gains(spec, 2, dt=1.0)
        assert not is_realizable_n2(witness * g, slack=1e-12)


class TestScan:
    def test_geometry_and_flags(self):
        spec = FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=0.1)
        scan = filter_image_scan(spec, resolution=50)
        assert scan.u1.shape == (2500,)
        assert scan.inside_before.dtype == bool
        # the box covers the whole slice, so a known interior point is hit
        assert scan.n_inside > 0
        # u_2 range covers the slice: extremes sit outside
        assert U2_RANGE[0] == pytest.approx(-np.sqrt(5) / 2)

    def test_identity_filter_keeps_membership_fixed(self):
        spec = FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=0.0)
        scan = filter_image_scan(spec, resolution=80)
        # slack only widens the after-set, so no interior point may escape
        assert scan.n_escaped == 0

    def test_rejects_degenerate_raster(self):
        spec = FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=0.1)
        with pytest.raises(ValueError):
            filter_image_scan(spec, resolution=1)
