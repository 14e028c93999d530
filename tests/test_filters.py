"""Frozen gain values and structural invariants for the moment filters."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipm.filters import LOG_MACHINE_EPS, FilterKind, FilterSpec, apply_filter, gains

ALL_KINDS = list(FilterKind)


class TestFrozenValues:
    def test_fokker_planck(self):
        spec = FilterSpec(FilterKind.FOKKER_PLANCK, 0.1)
        assert gains(spec, 4)[2] == pytest.approx(0.5488116360940264, abs=1e-15)
        lam = 0.3
        g = gains(FilterSpec(FilterKind.FOKKER_PLANCK, lam), 2)
        assert g == pytest.approx([1.0, np.exp(-2 * lam), np.exp(-6 * lam)], rel=1e-14)

    def test_exponential(self):
        # top mode is damped to machine epsilon when lambda * dt = 1
        spec = FilterSpec(FilterKind.EXPONENTIAL, 2.0, order=10)
        assert gains(spec, 10, dt=0.5)[10] == pytest.approx(2.220446049250313e-16, rel=1e-12)
        assert gains(spec, 10, dt=0.5)[5] == pytest.approx(0.9654133954938136, rel=1e-13)
        spec2 = FilterSpec(FilterKind.EXPONENTIAL, 0.5, order=2)
        assert gains(spec2, 2, dt=1.0)[1] == pytest.approx(0.01104854345603981, rel=1e-13)


class TestStructure:
    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_zero_strength_is_identity(self, kind):
        g = gains(FilterSpec(kind, 0.0), 7, dt=0.1)
        assert g == pytest.approx(np.ones(8), abs=1e-15)

    @given(
        kind=st.sampled_from(ALL_KINDS),
        strength=st.floats(0.0, 2.0),
        order=st.integers(1, 12),
        degree=st.integers(1, 15),
        dt=st.floats(1e-4, 0.3),
    )
    @settings(max_examples=200, deadline=None)
    def test_gains_in_unit_interval_and_nonincreasing(self, kind, strength, order, degree, dt):
        g = gains(FilterSpec(kind, strength, order), degree, dt=dt)
        assert np.all(g > 0)
        assert np.all(g <= 1.0 + 1e-15)
        assert np.all(np.diff(g) <= 1e-15)

    def test_extreme_damping_underflows_to_zero(self):
        # eps^(lambda*dt) leaves the subnormal range for very large exponents;
        # the gain flushes to 0.0, which is still a valid (total) damping
        g = gains(FilterSpec(FilterKind.EXPONENTIAL, 50.0, order=1), 1, dt=10.0)
        assert g[0] == 1.0
        assert g[1] == 0.0

    @pytest.mark.parametrize("kind", ALL_KINDS)
    def test_mean_preserved(self, kind):
        assert gains(FilterSpec(kind, 3.0, order=4), 6, dt=0.2)[0] == 1.0

    @given(lam1=st.floats(1e-6, 5.0), lam2=st.floats(1e-6, 5.0), degree=st.integers(0, 12))
    @settings(max_examples=150, deadline=None)
    def test_fokker_planck_semigroup(self, lam1, lam2, degree):
        g1 = gains(FilterSpec(FilterKind.FOKKER_PLANCK, lam1), degree)
        g2 = gains(FilterSpec(FilterKind.FOKKER_PLANCK, lam2), degree)
        g12 = gains(FilterSpec(FilterKind.FOKKER_PLANCK, lam1 + lam2), degree)
        assert g1 * g2 == pytest.approx(g12, rel=1e-13)

    @given(dt1=st.floats(1e-4, 2.0), dt2=st.floats(1e-4, 2.0))
    @settings(max_examples=100, deadline=None)
    def test_exponential_time_semigroup(self, dt1, dt2):
        spec = FilterSpec(FilterKind.EXPONENTIAL, 1.3, order=4)
        g = gains(spec, 8, dt=dt1) * gains(spec, 8, dt=dt2)
        assert g == pytest.approx(gains(spec, 8, dt=dt1 + dt2), rel=1e-12)

    def test_degree_zero_gain_is_one(self):
        for kind in ALL_KINDS:
            assert gains(FilterSpec(kind, 2.0), 0, dt=0.1) == pytest.approx([1.0])

    @given(order=st.integers(1, 12), degree=st.integers(1, 15))
    @settings(max_examples=100, deadline=None)
    def test_exponential_damps_the_top_mode_to_eps_at_unit_exponent(self, order, degree):
        g = gains(FilterSpec(FilterKind.EXPONENTIAL, 1.0, order), degree, dt=1.0)
        assert g[-1] == pytest.approx(np.finfo(float).eps, rel=1e-12)

    def test_fokker_planck_gains_read_neither_dt_nor_order(self):
        g = gains(FilterSpec(FilterKind.FOKKER_PLANCK, 0.4, order=2), 6)
        assert np.array_equal(gains(FilterSpec(FilterKind.FOKKER_PLANCK, 0.4, order=9), 6), g)
        assert np.array_equal(gains(FilterSpec(FilterKind.FOKKER_PLANCK, 0.4), 6, dt=0.3), g)

    def test_unit_dt_uses_strength_as_exponent(self):
        # the realizability scan prescribes the exponent through dt = 1
        spec = FilterSpec(FilterKind.EXPONENTIAL, 0.2, order=7)
        zeta = np.arange(3) / 2
        exact = np.exp(LOG_MACHINE_EPS * zeta**7) ** 0.2
        assert np.array_equal(gains(spec, 2, dt=1.0), exact)


class TestApplyFilter:
    def test_scales_rows(self):
        rng = np.random.default_rng(0)
        u = rng.normal(size=(4, 3))
        spec = FilterSpec(FilterKind.FOKKER_PLANCK, 0.2)
        out = apply_filter(spec, u)
        g = gains(spec, 3)
        assert out == pytest.approx(u * g[:, None], abs=1e-15)

    def test_none_is_identity_copy(self):
        u = np.arange(6.0).reshape(3, 2)
        out = apply_filter(None, u)
        assert out == pytest.approx(u)
        assert out is not u

    def test_batched(self):
        rng = np.random.default_rng(1)
        u = rng.normal(size=(5, 4, 3))
        spec = FilterSpec(FilterKind.FOKKER_PLANCK, 0.7)
        out = apply_filter(spec, u)
        for b in range(5):
            assert out[b] == pytest.approx(apply_filter(spec, u[b]), abs=1e-15)


    def test_exponential_filter_takes_the_time_step(self):
        u = np.random.default_rng(2).normal(size=(5, 3))
        spec = FilterSpec(FilterKind.EXPONENTIAL, 0.8, order=4)
        assert np.array_equal(apply_filter(spec, u, dt=0.05), u * gains(spec, 4, dt=0.05)[:, None])
        with pytest.raises(ValueError, match="pass dt > 0"):
            apply_filter(spec, u)


class TestValidation:
    def test_negative_strength_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=-1.0)

    @pytest.mark.parametrize("strength", [float("nan"), float("inf")])
    def test_non_finite_strength_rejected(self, strength):
        with pytest.raises(ValueError, match="^filter strength must be finite"):
            FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=strength)

    def test_bad_order_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(kind=FilterKind.EXPONENTIAL, strength=1.0, order=0)

    def test_order_is_checked_only_for_the_exponential_filter(self):
        # the Fokker-Planck gain reads no order, so none is refused
        assert FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=1.0, order=0).order == 0

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            FilterSpec(kind="boxcar", strength=1.0)

    def test_missing_dt_rejected(self):
        spec = FilterSpec(kind=FilterKind.EXPONENTIAL, strength=1.0, order=2)
        with pytest.raises(ValueError):
            gains(spec, 4)

    @pytest.mark.parametrize("dt", [0.0, -0.1])
    def test_nonpositive_dt_rejected(self, dt):
        spec = FilterSpec(kind=FilterKind.EXPONENTIAL, strength=1.0, order=2)
        with pytest.raises(ValueError, match="pass dt > 0"):
            gains(spec, 4, dt=dt)

    def test_bad_index_rejected(self):
        # the gain vector covers basis indices 0..degree; no degree is negative
        spec = FilterSpec(kind=FilterKind.FOKKER_PLANCK, strength=1.0)
        with pytest.raises(ValueError):
            gains(spec, -1)
