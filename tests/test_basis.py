"""Contracts for the orthonormal basis and the probability-weighted quadrature."""

import numpy as np
import pytest
import scipy.special
from hypothesis import given, settings
from hypothesis import strategies as st

from fipm.basis import gauss_rule, vandermonde
from fipm.filters import FilterKind, FilterSpec, gains


def uniform_moment(p):
    """Analytic <xi^p> for xi uniform on [-1, 1]."""
    return 0.0 if p % 2 else 1.0 / (p + 1)


class TestGaussRule:
    def test_two_point_rule_values(self):
        rule = gauss_rule(2)
        assert rule.nodes == pytest.approx([-1 / np.sqrt(3), 1 / np.sqrt(3)], abs=1e-15)
        assert rule.weights == pytest.approx([0.5, 0.5], abs=1e-15)

    @pytest.mark.parametrize("n_q", [1, 2, 3, 5, 8, 20, 30])
    def test_monomial_exactness_to_degree_2nq_minus_1(self, n_q):
        rule = gauss_rule(n_q)
        for p in range(2 * n_q):
            val = np.sum(rule.weights * rule.nodes**p)
            assert val == pytest.approx(uniform_moment(p), abs=1e-13)

    @pytest.mark.parametrize("n_q", [1, 2, 7, 30])
    def test_nodes_and_weights_shape_and_sign(self, n_q):
        rule = gauss_rule(n_q)
        assert rule.n == n_q
        assert np.all(np.diff(rule.nodes) > 0)
        assert np.all(np.abs(rule.nodes) < 1)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(1.0, abs=1e-14)

    def test_rejects_empty_rule(self):
        with pytest.raises(ValueError):
            gauss_rule(0)


def basis_column(i, xi):
    """phi_i at the points xi, read off the last Vandermonde column of degree i."""
    return vandermonde(i, np.atleast_1d(xi))[:, i]


class TestBasisEval:
    def test_hand_values(self):
        # phi_0 = 1, phi_1 = sqrt(3) xi, phi_2 = sqrt(5) (3 xi^2 - 1)/2
        assert basis_column(0, 0.3) == pytest.approx([1.0], abs=1e-15)
        assert basis_column(1, 0.5) == pytest.approx([0.8660254037844386], abs=1e-15)
        assert basis_column(2, 1.0) == pytest.approx([np.sqrt(5.0)], abs=1e-14)
        assert basis_column(2, 0.0) == pytest.approx([-np.sqrt(5.0) / 2], abs=1e-15)

    @pytest.mark.parametrize("i", range(9))
    def test_matches_independent_legendre_evaluation(self, i):
        xi = np.linspace(-1, 1, 17)
        expected = np.sqrt(2 * i + 1) * scipy.special.eval_legendre(i, xi)
        assert basis_column(i, xi) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("i", range(12))
    def test_endpoint_magnitude(self, i):
        assert np.abs(basis_column(i, [-1.0, 1.0])) == pytest.approx(
            [np.sqrt(2 * i + 1)] * 2, rel=1e-14
        )

    @given(i=st.integers(0, 15), xi=st.floats(-1.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_endpoint_value(self, i, xi):
        assert abs(basis_column(i, xi)[0]) <= np.sqrt(2 * i + 1) + 1e-12

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            vandermonde(2, [1.5])


class TestVandermonde:
    def test_row_at_zero(self):
        phi = vandermonde(2, [0.0])
        assert phi[0] == pytest.approx([1.0, 0.0, -np.sqrt(5) / 2], abs=1e-15)

    def test_orthonormal_under_quadrature(self):
        degree, n_q = 10, 30
        rule = gauss_rule(n_q)
        phi = vandermonde(degree, rule.nodes)
        gram = phi.T @ (rule.weights[:, None] * phi)
        assert gram == pytest.approx(np.eye(degree + 1), abs=1e-13)

    def test_consistent_with_basis_eval(self):
        """Column i does not depend on the truncation degree or on the other nodes."""
        rule = gauss_rule(12)
        phi = vandermonde(5, rule.nodes)
        for i in range(6):
            for q, node in enumerate(rule.nodes):
                assert phi[q, i] == pytest.approx(basis_column(i, node)[0], abs=1e-14)


class TestEigenvalues:
    """The Legendre Sturm-Liouville eigenvalues mu_i = -i(i+1).

    The heat-semigroup filter gain is g_i = exp(mu_i * lambda), so the
    eigenvalues are read off its gains.
    """

    def test_hand_values(self):
        g = gains(FilterSpec(FilterKind.FOKKER_PLANCK, 1.0), 3)
        assert np.log(g) == pytest.approx([0.0, -2.0, -6.0, -12.0], abs=1e-14)

    @given(i=st.integers(0, 40))
    def test_nonpositive_and_decreasing(self, i):
        mu = np.log(gains(FilterSpec(FilterKind.FOKKER_PLANCK, 1e-3), i + 1)) / 1e-3
        assert mu[i] <= 0.0
        assert mu[i + 1] < mu[i]
