"""Statistics and metric contracts, with quadrature and closed-form oracles."""

import csv

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fipm.basis import gauss_rule, vandermonde
from fipm.config import load_config
from fipm.experiment import COMPONENTS, run_experiment
from fipm.stats import (
    StatField,
    delta_metrics,
    error_norms,
    oscillation_metric,
    region_cells,
    stats_from_moments,
)


class TestStatsFromMoments:
    def test_hand_value(self):
        u_hat = np.array([[1.0], [0.3], [0.4]])[None]  # one cell, N = 2
        field = stats_from_moments(np.array([0.5]), u_hat)
        assert field.mean[0, 0] == pytest.approx(1.0, abs=1e-15)
        assert field.var[0, 0] == pytest.approx(0.25, abs=1e-15)

    def test_quadrature_oracle(self):
        # E and Var of the polynomial expansion, computed by quadrature
        rng = np.random.default_rng(11)
        degree, n_q = 6, 12
        rule = gauss_rule(n_q)
        phi = vandermonde(degree, rule.nodes)
        u_hat = rng.normal(size=(5, degree + 1, 2))
        field = stats_from_moments(np.linspace(0, 1, 5), u_hat)
        values = np.einsum("qi,jik->jqk", phi, u_hat)
        mean_q = np.einsum("q,jqk->jk", rule.weights, values)
        var_q = np.einsum("q,jqk->jk", rule.weights, values**2) - mean_q**2
        assert field.mean == pytest.approx(mean_q, abs=1e-12)
        assert field.var == pytest.approx(var_q, abs=1e-12)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=50, deadline=None)
    def test_variance_invariant_under_sign_flips(self, seed):
        rng = np.random.default_rng(seed)
        u_hat = rng.normal(size=(3, 5, 2))
        signs = rng.choice([-1.0, 1.0], size=(1, 5, 1))
        signs[:, 0, :] = 1.0  # keep the mean
        a = stats_from_moments(np.arange(3.0), u_hat)
        b = stats_from_moments(np.arange(3.0), u_hat * signs)
        assert a.mean == pytest.approx(b.mean, abs=1e-15)
        assert a.var == pytest.approx(b.var, abs=1e-13)

    def test_variance_nonnegative(self):
        rng = np.random.default_rng(12)
        field = stats_from_moments(np.arange(10.0), rng.normal(size=(10, 4, 3)))
        assert np.all(field.var >= 0)

    def test_rejects_mismatched_grid(self):
        with pytest.raises(ValueError):
            stats_from_moments(np.arange(4.0), np.zeros((3, 2, 1)))


class TestOscillationMetric:
    def test_quadratic_field_closed_form(self):
        # e = x^2 has exact second difference 2, so delta = 2 sqrt(length)
        n = 1000
        dx = 1.0 / n
        x = (np.arange(n) + 0.5) * dx
        region = (0.25, 0.75)
        centers = x[1:-1]
        length = dx * np.count_nonzero((centers >= region[0]) & (centers <= region[1]))
        assert oscillation_metric(x**2, x, region) == pytest.approx(
            2.0 * np.sqrt(length), rel=1e-10
        )

    def test_affine_field_vanishes(self):
        x = np.linspace(0, 1, 200)
        assert oscillation_metric(3.0 * x - 0.7, x, (0.0, 1.0)) == pytest.approx(0.0, abs=1e-9)

    @given(c=st.floats(-100, 100))
    @settings(max_examples=50, deadline=None)
    def test_homogeneity(self, c):
        rng = np.random.default_rng(13)
        x = np.linspace(0, 1, 101)
        e = rng.normal(size=101)
        base = oscillation_metric(e, x, (0.2, 0.8))
        assert oscillation_metric(c * e, x, (0.2, 0.8)) == pytest.approx(
            abs(c) * base, rel=1e-9, abs=1e-9
        )

    def test_region_localization(self):
        rng = np.random.default_rng(14)
        x = np.linspace(0, 1, 401)
        e = rng.normal(size=401)
        region = (0.4, 0.6)
        base = oscillation_metric(e, x, region)
        far = e.copy()
        far[x < 0.2] += 100 * rng.normal(size=np.count_nonzero(x < 0.2))
        assert oscillation_metric(far, x, region) == pytest.approx(base, rel=1e-12)

    def test_boundary_cells_excluded(self):
        x = np.linspace(0, 1, 50)
        e = np.zeros(50)
        e[0] = 1e6  # enters d2 of cell 1, which lies outside the region
        assert oscillation_metric(e, x, (0.3, 0.7)) == 0.0

    def test_region_cells_are_the_interior_centers_in_the_closed_region(self):
        x = np.linspace(0, 1, 11)
        assert np.flatnonzero(region_cells(x, (0.0, 1.0))).tolist() == list(range(1, 10))
        assert np.flatnonzero(region_cells(x, (x[3], x[5]))).tolist() == [3, 4, 5]
        assert not region_cells(x, (0.31, 0.39)).any()


class TestFieldMetrics:
    """Both metrics read the density columns of one numeric-minus-reference error field."""

    def test_delta_metrics_of_quadratic_error(self):
        x = np.linspace(0, 1, 101)
        errors = StatField(x=x, mean=np.stack([x**2, x], axis=1), var=np.zeros((101, 2)))
        d_mean, d_var = delta_metrics(errors, (0.0, 1.0))
        dx = x[1] - x[0]
        length = dx * (x.size - 2)
        assert d_mean == pytest.approx(2 * np.sqrt(length), rel=1e-8)
        assert d_var == 0.0

    def test_error_norms_constant_offset(self):
        x = np.linspace(0, 1, 101)
        mean = np.stack([np.full(101, 0.5), np.zeros(101)], axis=1)
        var = np.stack([np.full(101, 0.25), np.zeros(101)], axis=1)
        norms = error_norms(StatField(x=x, mean=mean, var=var))
        dx = x[1] - x[0]
        total = dx * x.size
        assert norms["l1_mean"] == pytest.approx(0.5 * total, rel=1e-12)
        assert norms["l2_mean"] == pytest.approx(0.5 * np.sqrt(total), rel=1e-12)
        assert norms["l1_var"] == pytest.approx(0.25 * total, rel=1e-12)
        assert norms["l2_var"] == pytest.approx(0.25 * np.sqrt(total), rel=1e-12)


def read_table(path):
    """A CSV's header and its rows of cell texts."""
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    return header, rows


class TestSummaryFromErrors:
    def test_summary_csv_is_the_score_of_errors_csv(self, tmp_path):
        cfg = load_config("sod-ipm-desk", overrides=["n_cells=60", "t_end=0.02"])
        artifacts = run_experiment(cfg, tmp_path)
        assert artifacts.exit_code == 0
        header, rows = read_table(artifacts.out_dir / "errors.csv")
        texts = {name: [row[k] for row in rows] for k, name in enumerate(header)}
        values = {name: np.array([float(t) for t in column]) for name, column in texts.items()}
        # every cell is the shortest repr of its float, so the field read back is the one written
        assert {name: [repr(v) for v in column.tolist()] for name, column in values.items()} == texts
        errors = StatField(
            x=values["x"],
            mean=np.stack([values[f"err_mean_{c}"] for c in COMPONENTS], axis=1),
            var=np.stack([values[f"err_var_{c}"] for c in COMPONENTS], axis=1),
        )
        d_mean, d_var = delta_metrics(errors, cfg.delta_region())
        scored = {"deltaE": d_mean, "deltaVar": d_var, **error_norms(errors)}
        header, (row,) = read_table(artifacts.out_dir / "summary.csv")
        assert dict(zip(header, row)) == {name: repr(value) for name, value in scored.items()}
