"""Membership, basis-change, and filter-image contracts for order-2 triples."""

import csv
import json
from pathlib import Path

import numpy as np
import pytest
from csv_reference import reference_write_table
from desk_presets import raster_digests, stored_scan
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from realizable_samples import monomial_to_gpc, sample_realizable

from fipm.basis import gauss_rule, vandermonde
from fipm.config import ScanConfig, parse_scan_config, read_config_text
from fipm.experiment import SCAN_RASTER, scan_figure1
from fipm.filters import FilterKind, FilterSpec, gains
from fipm.realizability import (
    AFTER_SLACK,
    U1_RANGE,
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


FIGURE1 = parse_scan_config(*read_config_text("figure1-scan"))
#: the figure-1 scan-summary rows and raster size that the benchmark stores
FIGURE1_EXPECTED = json.loads(
    (Path(__file__).resolve().parent.parent / "perfbench" / "expected.json").read_text()
)["figure1-scan"]


def raster_points(resolution):
    """The scan's (res^2, 3) point stack, built explicitly."""
    u1 = np.linspace(*U1_RANGE, resolution)
    u2 = np.linspace(*U2_RANGE, resolution)
    grid_u1, grid_u2 = np.meshgrid(u1, u2, indexing="ij")
    return np.stack([np.ones_like(grid_u1), grid_u1, grid_u2], axis=-1).reshape(-1, 3)


class TestScanOnAxes:
    @pytest.mark.parametrize("resolution", [2, 7, 150])
    @pytest.mark.parametrize("tag, spec", FIGURE1.filter_specs())
    def test_flags_equal_the_stacked_points(self, tag, spec, resolution):
        scan = filter_image_scan(spec, resolution=resolution)
        pts = raster_points(resolution)
        assert np.array_equal(scan.u1, pts[:, 1])
        assert np.array_equal(scan.u2, pts[:, 2])
        assert np.array_equal(scan.inside_before, is_realizable_n2(pts))
        after = is_realizable_n2(pts * gains(spec, 2, 1.0), slack=AFTER_SLACK)
        assert np.array_equal(scan.inside_after, after)

    def test_full_preset_keeps_the_stored_counts(self):
        rows = []
        for _, spec in FIGURE1.filter_specs():
            scan = filter_image_scan(spec, resolution=FIGURE1.resolution)
            counts = [str(scan.n_inside), str(scan.n_escaped)]
            rows.append([spec.kind.value, repr(spec.strength), *counts])
        assert rows == FIGURE1_EXPECTED["summary"]
        assert {row[2] for row in rows} == {"133738"}

    def test_preset_scan_writes_the_stored_summary_and_full_rasters(self, tmp_path):
        out_dir = scan_figure1(FIGURE1, tmp_path).out_dir
        with open(out_dir / "scan-summary.csv", newline="") as handle:
            _, *rows = csv.reader(handle)
        assert rows == FIGURE1_EXPECTED["summary"]
        rasters = [path for path in out_dir.iterdir() if SCAN_RASTER.fullmatch(path.name)]
        assert len(rasters) == len(rows)
        for path in rasters:
            with open(path, "rb") as handle:
                assert sum(1 for _ in handle) - 1 == FIGURE1_EXPECTED["points_per_raster"]
        assert raster_digests(out_dir) == stored_scan()


class TestSharedRaster:
    """The raster and its unfiltered membership are built once per resolution."""

    SPECS = [FIGURE1.filter_specs()[0][1], FIGURE1.filter_specs()[-1][1]]

    def test_specs_at_one_resolution_share_the_raster(self):
        exp, fp = (filter_image_scan(spec, resolution=31) for spec in self.SPECS)
        for name in ("u1", "u2", "inside_before"):
            assert getattr(exp, name) is getattr(fp, name), name
        assert not np.array_equal(exp.inside_after, fp.inside_after)

    @pytest.mark.parametrize("name", ["u1", "u2", "inside_before"])
    def test_shared_arrays_are_read_only(self, name):
        array = getattr(filter_image_scan(self.SPECS[0], resolution=31), name)
        with pytest.raises(ValueError, match="read-only"):
            array[0] = array[1]

    def test_another_resolution_gets_its_own_raster(self):
        small, large, again = (filter_image_scan(self.SPECS[0], resolution=n) for n in (31, 32, 31))
        assert (small.u1.size, large.u1.size) == (31**2, 32**2)
        for scan, resolution in ((small, 31), (large, 32), (again, 31)):
            pts = raster_points(resolution)
            assert np.array_equal(scan.u1, pts[:, 1])
            assert np.array_equal(scan.u2, pts[:, 2])
            assert np.array_equal(scan.inside_before, is_realizable_n2(pts))

    def test_scan_rasters_are_the_csv_module_text_of_their_scans(self, tmp_path):
        # 91 * 91 rows span two row blocks of the writer
        cfg = ScanConfig(resolution=91, exp_exponents=(0.2,), fp_strengths=(0.05,), output_dir="s")
        out_dir = scan_figure1(cfg, tmp_path).out_dir
        for tag, spec in cfg.filter_specs():
            want = tmp_path / f"want-{tag}.csv"
            reference_write_table(want, vars(filter_image_scan(spec, resolution=cfg.resolution)))
            assert (out_dir / f"{tag}-{spec.strength!r}.csv").read_bytes() == want.read_bytes()
