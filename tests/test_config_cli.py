"""Configuration parsing, preset golden values, artifact emission, CLI exit codes."""

import ast
import csv
import dataclasses
import inspect
import os
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from csv_reference import reference_write_table
from hypothesis import example, given, settings
from hypothesis import strategies as st

import fipm
from fipm import experiment
from fipm import solver as solver_module
from fipm.cli import build_parser, main
from fipm.config import (
    ExperimentConfig,
    ScanConfig,
    list_presets,
    load_config,
    parse_config,
    parse_scan_config,
    read_config_text,
    split_assignment,
)
from fipm.errors import ConfigError
from fipm.euler import EulerEntropy, project_ic, reference_statistics
from fipm.experiment import (
    ROWS_PER_WRITE,
    _column_blocks,
    _write_flag_copies,
    _write_table,
    run_experiment,
    scan_figure1,
    sweep,
)
from fipm.filters import FilterKind, FilterSpec
from fipm.realizability import filter_image_scan
from fipm.solver import Closure, GridConfig, MomentSolver, StepDiagnostics
from fipm.stats import StatField, region_cells

MINIMAL = """
a = 0.0
b = 1.0
n_cells = 60
t_end = 0.01
x0 = 0.5
sigma = 0.05
rho_l = 1.0
p_l = 1.0
rho_r = 0.125
p_r = 0.1
degree = 2
n_quad = 6
closure = ipm
"""

TINY_OVERRIDES = [
    "n_cells=60",
    "t_end=0.01",
    "degree=2",
    "n_quad=6",
]


# -- parsing -----------------------------------------------------------------


class TestParseConfig:
    def test_minimal_config_gets_defaults(self):
        cfg = parse_config(MINIMAL)
        assert cfg.cfl == 0.5
        assert cfg.gamma == 1.4
        assert cfg.filter == "none"
        assert cfg.eta == 0.0
        assert cfg.tau == 1e-7
        assert cfg.delta_region() == (0.7, 0.8)

    def test_defaults_shared_with_the_library_agree(self):
        """A run key whose library constructor also has a default starts at that
        default, so a config run and a library run of the same inputs agree."""
        config = {field.name: field.default for field in dataclasses.fields(ExperimentConfig)}
        solver = inspect.signature(MomentSolver).parameters
        library = {
            "tau": solver["tau"].default,
            "eta": solver["eta"].default,
            "cfl": GridConfig.cfl,
            "filter_order": FilterSpec.order,
            "gamma": inspect.signature(EulerEntropy).parameters["gamma"].default,
        }
        assert {key: config[key] for key in library} == library

    def test_exponential_filter_order_defaults_to_the_filter_spec_default(self):
        cfg = parse_config(MINIMAL + "filter = exponential\nfilter_strength = 2.0\neta = 1e-7\n")
        assert cfg.filter_spec() == FilterSpec(FilterKind.EXPONENTIAL, 2.0)
        assert "filter_order = 2\n" in cfg.to_text()

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"my\.cfg:3: unknown key 'sigmaa'"):
            parse_config("a = 0\nb = 1\nsigmaa = 0.1\n", source="my.cfg")

    def test_duplicate_key_rejected(self):
        text = MINIMAL + "a = 0.5\n"
        with pytest.raises(ConfigError, match="duplicate key 'a'"):
            parse_config(text)

    def test_type_mismatch_names_key(self):
        with pytest.raises(ConfigError, match="'n_cells' expects int"):
            parse_config(MINIMAL.replace("n_cells = 60", "n_cells = sixty"))
        for value in ("nan", "inf", "-inf"):
            text = MINIMAL.replace("t_end = 0.01", f"t_end = {value}")
            with pytest.raises(ConfigError, match=r"my\.cfg:5: key 't_end' expects a finite"):
                parse_config(text, source="my.cfg")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "key",
        ["a", "b", "t_end", "x0", "sigma", "rho_l", "p_l", "rho_r", "p_r", "cfl", "gamma",
         "filter_strength", "eta", "tau", "delta_lo", "delta_hi"],
    )
    def test_replace_rejects_non_finite_floats(self, key, value):
        cfg = load_config("sod-fipm-exp-desk", overrides=["n_cells=60"])
        with pytest.raises(ConfigError, match=f"key '{key}' must be finite"):
            dataclasses.replace(cfg, **{key: value})

    def test_missing_required_keys_listed(self):
        with pytest.raises(ConfigError, match="missing required keys: .*closure"):
            parse_config("a = 0.0\nb = 1.0\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ConfigError, match="expected 'key = value'"):
            parse_config("a 0.0\n")

    @pytest.mark.parametrize(
        "text, pair",
        [
            ("a = 0.0", ("a", "0.0")),
            (" cfl =0.3 ", ("cfl", "0.3")),
            ("output_dir = runs/a=b", ("output_dir", "runs/a=b")),
            ("= 5", ("", "5")),
            ("n_cells=", ("n_cells", "")),
            ("a 0.0", None),
        ],
    )
    def test_split_assignment_splits_at_the_first_equals_sign(self, text, pair):
        assert split_assignment(text) == pair

    def test_negative_eta_rejected(self):
        with pytest.raises(ConfigError, match="eta must be nonnegative"):
            parse_config(MINIMAL + "eta = -1\n")

    def test_closure_is_case_insensitive(self):
        cfg = parse_config(MINIMAL.replace("closure = ipm", "closure = IPM"))
        assert cfg.closure == "ipm"

    def test_overrides_apply_and_validate(self):
        cfg = parse_config(MINIMAL, overrides=["n_cells=99", "cfl=0.4"])
        assert cfg.n_cells == 99 and cfg.cfl == 0.4
        with pytest.raises(ConfigError, match="unknown key 'ncells'"):
            parse_config(MINIMAL, overrides=["ncells=99"])
        for item in ("n_cells", "=60", " = 60"):
            with pytest.raises(ConfigError) as err:
                parse_config(MINIMAL, overrides=[item])
            assert str(err.value) == f"override '{item}' must have the form key=value"

    def test_repeated_override_key_rejected(self):
        """A key overridden twice is an error, as a key repeated in the text is; an
        override may still replace a key of the text."""
        with pytest.raises(ConfigError, match="override: duplicate key 'n_cells'"):
            parse_config(MINIMAL, overrides=["n_cells=10", "n_cells=20"])
        with pytest.raises(ConfigError, match="override: duplicate key 'cfl'"):
            parse_config(MINIMAL, overrides=["cfl=0.4", "n_cells=99", " cfl = 0.4"])
        assert parse_config(MINIMAL, overrides=["n_cells=99"]).n_cells == 99

    def test_report_region_needs_an_interior_cell_center(self):
        """On 4 cells the interior centers 0.375 and 0.625 both miss [0.7, 0.8]."""
        with pytest.raises(ConfigError, match=r"\[0.7, 0.8\] holds no interior cell center"):
            parse_config(MINIMAL, overrides=["n_cells=4"])
        # on 5 cells the interior center 3.5 * 0.2 = 0.7000000000000001 lies one ulp inside
        assert parse_config(MINIMAL, overrides=["n_cells=5"]).n_cells == 5

    @pytest.mark.parametrize("side", ["lo", "hi"])
    def test_a_region_bound_on_an_interior_cell_center_selects_that_cell(self, side):
        """Both bounds are inclusive, for the config's check and for the metric's cells:
        a region that reaches one interior center only at its bound holds that cell."""
        center = float(GridConfig(0.0, 1.0, 10, 0.01).centers()[6])
        lo, hi = (center, center + 0.04) if side == "lo" else (center - 0.04, center)
        cfg = parse_config(
            MINIMAL, overrides=["n_cells=10", f"delta_lo={lo!r}", f"delta_hi={hi!r}"]
        )
        assert cfg.delta_region() == (lo, hi)
        assert np.flatnonzero(region_cells(cfg.grid().centers(), cfg.delta_region())) == [6]

    def test_echo_round_trips(self):
        cfg = parse_config(
            MINIMAL, overrides=["closure=sg", "filter=fokker-planck", "filter_strength=0.25"]
        )
        assert parse_config(cfg.to_text()) == cfg


COMBINATION_FILTERS = ["none"] + [kind.value for kind in FilterKind]
#: every (closure, filter, eta) the paper pairs, with eta in {0, 1e-7}: the
#: Galerkin closure with any filter and no regularization, the exact dual with
#: no filter or fokker-planck, the regularized dual with any filter
ACCEPTED = {
    *(("sg", filt, 0.0) for filt in COMBINATION_FILTERS),
    ("ipm", "none", 0.0),
    ("ipm", "fokker-planck", 0.0),
    *(("ipm", filt, 1e-7) for filt in COMBINATION_FILTERS),
}
assert len(ACCEPTED) == 8
#: closure and filter names of earlier versions; each fails as any unknown choice
REMOVED_CLOSURES = ["fsg", "fipm-realizable", "fipm-regularized"]
REMOVED_FILTERS = ["l2", "erfc"]


class TestCompatibility:
    @pytest.mark.parametrize(
        "extra,message",
        [
            ("closure = sg\neta = 1e-7", "sg takes no regularization"),
            (
                "closure = ipm\nfilter = exponential\nfilter_strength = 1.0",
                "filter 'exponential' needs eta > 0",
            ),
        ],
    )
    def test_incompatible_combinations_rejected(self, extra, message):
        text = MINIMAL.replace("closure = ipm", "") + extra + "\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize("eta", [0.0, 1e-7])
    @pytest.mark.parametrize("filt", COMBINATION_FILTERS + REMOVED_FILTERS)
    @pytest.mark.parametrize(
        "closure", [member.value for member in Closure] + REMOVED_CLOSURES
    )
    def test_config_and_solver_accept_the_same_combinations(self, closure, filt, eta):
        fields = dict(closure=closure, filter=filt, eta=eta)
        if filt != "none":
            fields["filter_strength"] = 0.1
        overrides = [f"{key}={value}" for key, value in fields.items()]
        try:
            parse_config(MINIMAL.replace("closure = ipm", ""), overrides=overrides)
            config_accepts = True
        except ConfigError:
            config_accepts = False
        try:
            spec = None if filt == "none" else FilterSpec(FilterKind(filt), 0.1, order=2)
            MomentSolver(
                GridConfig(0.0, 1.0, 60, 0.01), 2, 6, EulerEntropy(),
                closure=Closure(closure),
                filter_spec=spec,
                eta=eta,
            )
            solver_accepts = True
        except ValueError:
            solver_accepts = False
        assert config_accepts == solver_accepts == ((closure, filt, eta) in ACCEPTED)

    @pytest.mark.parametrize("closure", ["sg", "ipm"])
    @pytest.mark.parametrize(
        "key,value",
        [("gamma", 1.0), ("tau", -1.0), ("eta", -1.0), ("degree", -1), ("n_quad", 2)],
    )
    def test_config_rejects_exactly_what_the_solver_rejects(self, closure, key, value):
        fields = dict(gamma=1.4, tau=1e-7, eta=0.0, degree=2, n_quad=6) | {key: value}
        overrides = [f"{k}={v}" for k, v in fields.items()] + [f"closure={closure}"]
        try:
            parse_config(MINIMAL, overrides=overrides)
            config_error = None
        except ConfigError as err:
            config_error = str(err)
        try:
            MomentSolver(
                GridConfig(0.0, 1.0, 60, 0.01), fields["degree"], fields["n_quad"],
                EulerEntropy(fields["gamma"]), closure=Closure(closure),
                eta=fields["eta"], tau=fields["tau"],
            )
            solver_error = None
        except ValueError as err:
            solver_error = str(err)
        assert solver_error is not None and config_error is not None
        assert config_error.endswith(solver_error)

    def test_geometry_validation(self):
        with pytest.raises(ConfigError, match="inside the domain"):
            parse_config(MINIMAL.replace("x0 = 0.5", "x0 = 0.99"))
        with pytest.raises(ConfigError, match="n_quad"):
            parse_config(MINIMAL.replace("n_quad = 6", "n_quad = 2"))
        with pytest.raises(ConfigError, match="oscillation region"):
            parse_config(MINIMAL + "delta_lo = 0.9\ndelta_hi = 0.8\n")

    @pytest.mark.parametrize(
        "x0, sigma, n_quad",
        [("0.05", "0.1", "6"), ("0.1", "0.1", "6"), ("0.9", "0.1", "6"), ("0.05", "0.1", "2")],
        ids=["past-a", "touching-a", "touching-b", "before-the-solver-rules"],
    )
    def test_uncertain_band_must_lie_strictly_inside_the_domain(self, x0, sigma, n_quad):
        text = MINIMAL.replace("x0 = 0.5", f"x0 = {x0}").replace("sigma = 0.05", f"sigma = {sigma}")
        with pytest.raises(ConfigError) as err:
            parse_config(text.replace("n_quad = 6", f"n_quad = {n_quad}"))
        assert str(err.value) == (
            "<config>: uncertain interface band must lie strictly inside the domain"
        )

    def test_shipped_preset_band_lies_inside_the_domain(self):
        cfg = load_config("sod-ipm-desk")
        assert cfg.a < cfg.x0 - cfg.sigma and cfg.x0 + cfg.sigma < cfg.b


# -- bundled presets -----------------------------------------------------------


class TestPresets:
    def test_expected_presets_are_bundled(self):
        names = list_presets()
        for required in (
            "sod-ipm",
            "sod-fipm-exp",
            "sod-fipm-fp",
            "sod-ipm-desk",
            "sod-fipm-exp-desk",
            "sod-fipm-fp-desk",
            "sod-highdensity-desk",
            "sod-sg-desk",
            "figure1-scan",
        ):
            assert required in names

    def test_shock_tube_golden_values(self):
        """The publication-scale preset pins the documented parameter table."""
        cfg = load_config("sod-ipm")
        assert (cfg.a, cfg.b) == (0.0, 1.0)
        assert cfg.n_cells == 2000
        assert cfg.t_end == 0.14
        assert (cfg.x0, cfg.sigma) == (0.5, 0.05)
        assert (cfg.rho_l, cfg.p_l, cfg.rho_r, cfg.p_r) == (1.0, 1.0, 0.125, 0.1)
        assert cfg.gamma == 1.4
        assert cfg.degree == 10
        assert cfg.n_quad == 30
        assert cfg.tau == 1e-7
        assert cfg.closure == "ipm" and cfg.filter == "none" and cfg.eta == 0.0

    def test_filtered_preset_golden_values(self):
        exp = load_config("sod-fipm-exp")
        assert exp.closure == "ipm"
        assert exp.filter == "exponential"
        assert exp.filter_strength == 2.0
        assert exp.filter_order == 10
        assert exp.eta == 1e-7
        fp = load_config("sod-fipm-fp")
        assert fp.closure == "ipm"
        assert fp.filter == "fokker-planck"
        assert fp.filter_strength == 5e-5
        assert fp.eta == 0.0

    def test_desk_presets_share_the_desk_scale(self):
        for name in ("sod-ipm-desk", "sod-fipm-exp-desk", "sod-fipm-fp-desk"):
            cfg = load_config(name)
            assert (cfg.n_cells, cfg.degree, cfg.n_quad) == (400, 5, 20)
            assert cfg.t_end == 0.14

    def test_high_density_preset_raises_right_state(self):
        cfg = load_config("sod-highdensity-desk")
        assert cfg.rho_r == 0.8
        assert (cfg.rho_l, cfg.p_l, cfg.p_r) == (1.0, 1.0, 0.1)

    @pytest.mark.parametrize("name", [n for n in list_presets() if n != "figure1-scan"])
    def test_run_preset_round_trips_and_pairs_as_the_paper_does(self, name):
        cfg = load_config(name)
        assert parse_config(cfg.to_text()) == cfg
        assert (cfg.closure, cfg.filter, cfg.eta) in ACCEPTED

    @pytest.mark.parametrize("name", [n for n in list_presets() if n != "figure1-scan"])
    def test_run_preset_report_region_holds_the_uncertain_shock(self, name):
        # deltaE and deltaVar over a region without reference variance measure nothing
        cfg = load_config(name)
        x = cfg.grid().centers()
        _, var = reference_statistics(x, cfg.t_end, cfg.ic(), EulerEntropy(cfg.gamma))
        var_rho = var[:, 0]
        interior = np.arange(1, len(x) - 1)
        in_region = interior[(x[interior] >= cfg.delta_lo) & (x[interior] <= cfg.delta_hi)]
        assert var_rho[in_region].max() >= 0.1 * var_rho.max()

    def test_scan_preset_golden_values(self):
        text, _ = read_config_text("figure1-scan")
        cfg = parse_scan_config(text)
        assert cfg.resolution == 400
        assert cfg.order == 7
        assert cfg.exp_exponents == (0.05, 0.1, 0.2, 0.3)
        assert cfg.fp_strengths == (0.05, 0.1, 0.2, 0.3)

    def test_every_filter_kind_runs_in_a_preset(self):
        # a kind that no preset runs is generality that nothing uses
        kinds = set()
        for name in list_presets():
            if name == "figure1-scan":
                specs = parse_scan_config(read_config_text(name)[0]).filter_specs()
                kinds |= {spec.kind for _, spec in specs}
            elif (spec := load_config(name).filter_spec()) is not None:
                kinds.add(spec.kind)
        assert kinds == set(FilterKind)

    def test_file_paths_also_resolve(self, tmp_path):
        path = tmp_path / "mine.cfg"
        path.write_text(MINIMAL)
        cfg = load_config(str(path))
        assert cfg.n_cells == 60
        with pytest.raises(ConfigError, match="neither a bundled preset"):
            load_config(str(tmp_path / "absent.cfg"))


class TestScanConfig:
    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key 'resolutionn'"):
            parse_scan_config("resolutionn = 10\n")

    def test_bad_list_rejected(self):
        with pytest.raises(ConfigError, match="comma-separated floats"):
            parse_scan_config("exp_exponents = 0.1, abc\n")
        for value in ("nan", "0.1, inf"):
            with pytest.raises(ConfigError, match="'exp_exponents' expects comma-separated"):
                parse_scan_config(f"exp_exponents = {value}\n")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("key", ["exp_exponents", "fp_strengths"])
    def test_constructor_rejects_non_finite_values(self, key, value):
        with pytest.raises(ConfigError, match=f"key '{key}' must be finite"):
            ScanConfig(**{key: (0.1, value)})

    @pytest.mark.parametrize(
        "text,message",
        [
            ("order = 0\nexp_exponents = 0.1\n", "filter order must be >= 1, got 0"),
            ("exp_exponents = 0.1, -0.2\n", "filter strength must be nonnegative, got -0.2"),
            ("fp_strengths = -0.1\n", "filter strength must be nonnegative, got -0.1"),
        ],
        ids=["order", "exp_exponents", "fp_strengths"],
    )
    def test_filter_rules_are_the_filter_specs(self, text, message):
        with pytest.raises(ConfigError, match=message):
            parse_scan_config(text)

    @pytest.mark.parametrize("order", [0, 9])
    def test_order_without_exponential_filter_rejected(self, order):
        message = "key 'order' is not read when exp_exponents is empty; leave it at its default 7"
        with pytest.raises(ConfigError, match=message):
            parse_scan_config(f"exp_exponents = \norder = {order}\n")
        assert parse_scan_config("exp_exponents = \norder = 7\n").order == 7

    @pytest.mark.parametrize("key", ["exp_exponents", "fp_strengths"])
    def test_repeated_strength_rejected(self, key):
        with pytest.raises(ConfigError, match=f"{key} values repeat: 0.1$"):
            parse_scan_config(f"{key} = 0.1, 0.2, 0.10\n")
        # one strength in both families writes two different rasters
        cfg = parse_scan_config("exp_exponents = 0.1\nfp_strengths = 0.1\n")
        assert [tag for tag, _ in cfg.filter_specs()] == ["exp", "fp"]

    def test_echo_round_trips(self):
        cfg = ScanConfig(exp_exponents=(0.5, 1.0), resolution=10)
        assert parse_scan_config(cfg.to_text()) == cfg

    def test_defaults(self):
        cfg = parse_scan_config("")
        assert cfg == ScanConfig()


# -- experiment artifacts ---------------------------------------------------------

ARTIFACTS = (
    "config.cfg",
    "snapshot.csv",
    "telemetry.csv",
    "stats.csv",
    "reference.csv",
    "errors.csv",
    "summary.csv",
    "plot.py",
    "run.log",
)


def tiny_config(**overrides):
    cfg = parse_config(MINIMAL)
    if overrides:
        cfg = dataclasses.replace(cfg, **overrides)
    return cfg


# cell text that csv quotes, alone or in company, and the empty string
CSV_TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", "\n", " ", "a", "0"]), max_size=4)
FLOATS = st.sampled_from(
    [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -2.5e-310, 0.1, 1e300]
) | st.floats()
#: header names that csv quotes, without the line break that ``_write_flag_copies`` excludes
NAME_TEXT = st.text(alphabet=st.sampled_from([",", '"', "\r", " ", "a", "0"]), max_size=4)
COLUMN_KINDS = {
    "f": (FLOATS, np.float64),
    "i": (st.integers(-(2**63), 2**63 - 1), np.int64),
    "u": (st.sampled_from([2**63, 2**64 - 1]) | st.integers(0, 2**64 - 1), np.uint64),
    "b": (st.booleans(), bool),
    "s": (CSV_TEXT, None),
}


@st.composite
def column(draw, n_rows):
    """A column of ``n_rows`` cells of one kind, drawn from a few values so that they repeat."""
    values, dtype = COLUMN_KINDS[draw(st.sampled_from(sorted(COLUMN_KINDS)))]
    pool = draw(st.lists(values, min_size=1, max_size=3))
    cells = draw(st.lists(st.sampled_from(pool), min_size=n_rows, max_size=n_rows))
    return cells if dtype is None else np.array(cells, dtype=dtype)


@st.composite
def tables(draw):
    """1 to 4 named columns of 0 to 12 rows."""
    names = draw(st.lists(CSV_TEXT, min_size=1, max_size=4, unique=True))
    n_rows = draw(st.integers(0, 12))
    return {name: draw(column(n_rows)) for name in names}


#: row counts on either side of the ends of the first two ``ROWS_PER_WRITE`` blocks
BLOCK_ROWS = [0, 1, ROWS_PER_WRITE - 1, ROWS_PER_WRITE, ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 3]


@st.composite
def flag_tables(draw):
    """A table of float, int and bool columns, the last one bool, with a row count from
    ``BLOCK_ROWS``, and 0 to 3 flag columns of its length for its copies."""
    n_rows = draw(st.sampled_from(BLOCK_ROWS))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kinds = draw(st.lists(st.sampled_from("fib"), max_size=4)) + ["b"]
    pools = {
        "f": np.array(draw(st.lists(FLOATS, min_size=1, max_size=3))),
        "i": np.array(draw(st.lists(COLUMN_KINDS["i"][0], min_size=1, max_size=3))),
    }
    names = draw(st.lists(NAME_TEXT, min_size=len(kinds), max_size=len(kinds), unique=True))
    table = {
        name: rng.random(n_rows) < 0.5 if kind == "b" else rng.choice(pools[kind], n_rows)
        for name, kind in zip(names, kinds)
    }
    return table, [rng.random(n_rows) < 0.5 for _ in range(draw(st.integers(0, 3)))]


#: 2 * ROWS_PER_WRITE + 3 rows of a float and an int column and three copies' flags
EDGE_INDEX = np.arange(2 * ROWS_PER_WRITE + 3)
EDGE_X, EDGE_N = np.where(EDGE_INDEX % 3 == 0, -0.0, 0.1 * EDGE_INDEX), EDGE_INDEX - 7
EDGE_FLAGS = [EDGE_INDEX % m == 0 for m in range(2, 6)]


def write_both(directory, name, columns):
    """Write ``columns`` with ``_write_table`` and through the oracle; return both byte strings."""
    _write_table(directory / f"got-{name}", columns)
    reference_write_table(directory / f"want-{name}", columns)
    return (directory / f"got-{name}").read_bytes(), (directory / f"want-{name}").read_bytes()


FIGURE1 = parse_scan_config(read_config_text("figure1-scan")[0])


class TestWriteTable:
    def test_exact_text(self, tmp_path):
        path = tmp_path / "table.csv"
        _write_table(
            path,
            {
                "f": np.array([0.1, -0.0, 1e-300, np.nan, np.inf]),
                "i": np.arange(-2, 3),
                "b": np.array([True, False, True, False, True]),
                "s": ["a", "b c", "x,y", "0.10", "-"],
            },
        )
        assert path.read_bytes() == (
            b"f,i,b,s\r\n"
            b"0.1,-2,1,a\r\n"
            b"-0.0,-1,0,b c\r\n"
            b'1e-300,0,1,"x,y"\r\n'
            b"nan,1,0,0.10\r\n"
            b"inf,2,1,-\r\n"
        )

    def test_zero_rows_write_only_the_header(self, tmp_path):
        path = tmp_path / "empty.csv"
        _write_table(path, {"step": [], "t": np.array([]), "value": []})
        assert path.read_bytes() == b"step,t,value\r\n"

    def test_mismatched_columns_leave_no_file(self, tmp_path):
        path = tmp_path / "table.csv"
        with pytest.raises(ValueError, match="'a' has 3 rows, 'b' has 2 rows"):
            _write_table(path, {"a": [1.0, 2.0, 3.0], "b": [1, 2]})
        assert not path.exists()

    def test_a_failed_open_closes_the_files_already_open(self, tmp_path, monkeypatch):
        opened = []

        def recording_open(*args, **kwargs):
            handle = open(*args, **kwargs)
            opened.append(handle)
            return handle

        monkeypatch.setattr(experiment, "open", recording_open, raising=False)
        source = tmp_path / "source.csv"
        source.write_bytes(b"flag\r\n1\r\n")
        first, missing = tmp_path / "first.csv", tmp_path / "no-such-dir" / "second.csv"
        with pytest.raises(FileNotFoundError):
            _write_flag_copies(source, {first: [False], missing: [True]})
        # the source and the first copy were open
        assert len(opened) == 2 and all(handle.closed for handle in opened)

    @given(table=tables())
    # zeros of both signs in one column, and uint64 neighbours that a float key would merge
    @example(
        table={"z": np.array([0.0, -0.0, 0.0]), "n": np.array([2**64 - 1, 2**64 - 2, 0], np.uint64)}
    )
    # two NaN bit patterns, signed zeros and infinities in the one and last column,
    # whose cells end in the row end
    @example(
        table={
            "f": np.concatenate(
                [
                    np.array([0x7FF8000000000001, 0x7FF8000000000000]).view(np.float64),
                    [0.0, -0.0, np.inf, -np.inf, -0.0, np.nan],
                ]
            )
        }
    )
    @example(table={"flag": np.array([True, False, False, True])})
    # a last column of strings that need quoting
    @example(table={"n": np.arange(4), "s": ["a,b", 'say "hi"', "", "x\ny"]})
    @settings(max_examples=300, deadline=None)
    def test_bytes_match_the_csv_module(self, table):
        with tempfile.TemporaryDirectory() as tmp:
            got, want = write_both(Path(tmp), "table.csv", table)
            assert got == want

    @pytest.mark.parametrize("straddle", [False, True], ids=["whole-rows", "straddling-rows"])
    @given(drawn=flag_tables())
    @example(drawn=({"x": EDGE_X, "n": EDGE_N, "flag": EDGE_FLAGS[0]}, EDGE_FLAGS[1:]))
    @settings(max_examples=40, deadline=None)
    def test_flag_copies_match_the_csv_module(self, straddle, drawn):
        table, flags = drawn
        *_, last = table
        with tempfile.TemporaryDirectory() as tmp:
            tmp = Path(tmp)
            source = tmp / "source.csv"
            _write_table(source, table)
            rows = source.read_bytes().split(b"\n")[1:-1]
            # chunks shorter than every row, so that each row straddles a chunk's end
            size = min(map(len, rows), default=1) if straddle else experiment.COPY_BYTES
            copies = {tmp / f"copy-{k}.csv": own for k, own in enumerate(flags)}
            with mock.patch.object(experiment, "COPY_BYTES", size):
                _write_flag_copies(source, copies)
            for path, own in copies.items():
                reference_write_table(tmp / "want.csv", {**table, last: own})
                assert path.read_bytes() == (tmp / "want.csv").read_bytes(), path.name

    def test_no_copies_write_nothing(self, tmp_path):
        source = tmp_path / "source.csv"
        _write_table(source, {"x": [0.5], "flag": [True]})
        _write_flag_copies(source, {})
        assert [path.name for path in tmp_path.iterdir()] == ["source.csv"]

    def test_bool_copies_of_zero_rows_write_only_their_headers(self, tmp_path):
        source = tmp_path / "source.csv"
        _write_table(source, {"x": np.array([]), "flag": np.array([], dtype=bool)})
        copies = {tmp_path / name: np.array([], dtype=bool) for name in ("a.csv", "b.csv")}
        _write_flag_copies(source, copies)
        assert [path.read_bytes() for path in copies] == [b"x,flag\r\n"] * 2

    @pytest.mark.parametrize("n_rows", BLOCK_ROWS)
    def test_bytes_match_the_csv_module_across_row_blocks(self, tmp_path, n_rows):
        rows = np.arange(n_rows)
        floats = np.array([0.1, -0.0, np.nan, np.inf, 0.0, -2.5])
        texts = np.array(["a,b", 'say "hi"', "x\ny", "plain", ""])
        mixed = {
            "f": floats[rows % len(floats)],
            "b": rows % 3 == 0,
            "s": texts[rows % len(texts)].tolist(),
        }
        # the empty and only field is quoted, also on either side of a block's end
        empty = (rows % 4 == 0) | (rows == ROWS_PER_WRITE - 1) | (rows == ROWS_PER_WRITE)
        alone = {"s": np.where(empty, "", "x").tolist()}
        for name, table in (("mixed", mixed), ("alone", alone)):
            got, want = write_both(tmp_path, name, table)
            assert got == want, name

    @pytest.mark.parametrize("n_rows", [ROWS_PER_WRITE + 1, 2 * ROWS_PER_WRITE + 3])
    def test_a_shared_column_is_quoted_only_where_it_is_alone_across_row_blocks(
        self, tmp_path, n_rows
    ):
        rows = np.arange(n_rows)
        empty = (rows % 4 == 0) | (rows == ROWS_PER_WRITE - 1) | (rows == ROWS_PER_WRITE)
        cells = np.where(empty, "", "x").tolist()
        tables = {
            "alone": {"s": cells},
            "paired": {"s": cells, "n": rows},
            "last": {"n": rows, "s": cells},
        }
        written = {name: write_both(tmp_path, name, table) for name, table in tables.items()}
        for name, (got, want) in written.items():
            assert got == want, name
        assert b'\r\n""\r\n' in written["alone"][0]
        assert b'""' not in written["paired"][0] + written["last"][0]

    def test_bytes_match_the_csv_module_on_a_figure1_raster(self, tmp_path):
        tag, spec = FIGURE1.filter_specs()[0]
        assert (tag, spec.strength) == ("exp", 0.05)
        scan = filter_image_scan(spec, resolution=FIGURE1.resolution)
        table = dataclasses.asdict(scan)
        assert len(scan.u1) == 160_000
        got, want = write_both(tmp_path, "raster.csv", table)
        assert got == want

    def test_peak_memory_of_a_raster_stays_below_twice_the_file(self, tmp_path):
        # 160 000 rows: two axes of 400 distinct floats each and two flag columns
        u1 = np.repeat(np.linspace(-1.2, 1.2, 400), 400)
        u2 = np.tile(np.linspace(-np.sqrt(5) / 2, np.sqrt(5), 400), 400)
        table = {"u1": u1, "u2": u2, "inside_before": u1**2 < u2, "inside_after": u1**2 < u2 / 2}
        path = tmp_path / "raster.csv"
        tracemalloc.start()
        try:
            _write_table(path, table)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * path.stat().st_size

    def test_peak_memory_of_the_figure1_rasters_stays_below_one_file(self, tmp_path):
        first, *later = (
            filter_image_scan(spec, resolution=FIGURE1.resolution)
            for _, spec in FIGURE1.filter_specs()
        )
        assert len(later) == 7
        source = tmp_path / "first.csv"
        copies = {tmp_path / f"copy-{k}.csv": scan.inside_after for k, scan in enumerate(later)}
        tracemalloc.start()
        try:
            _write_table(source, vars(first))
            _write_flag_copies(source, copies)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < min(path.stat().st_size for path in [source, *copies])

    def test_a_column_holds_only_its_distinct_values_between_blocks(self):
        u1 = np.repeat(np.linspace(-1.2, 1.2, 400), 400)
        tracemalloc.start()
        try:
            blocks = _column_blocks(u1, False, ",")
            next(blocks)
            held, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # the sorted copy of the column alone would be u1.nbytes
        assert held < u1.nbytes / 10


class TestRunExperiment:
    def test_emits_complete_artifact_set(self, tmp_path):
        artifacts = run_experiment(tiny_config(output_dir="case"), tmp_path)
        assert artifacts.exit_code == 0
        for name in ARTIFACTS:
            assert (artifacts.out_dir / name).is_file(), name

    def test_plot_script_compiles_and_reads_only_written_columns(self):
        # matplotlib is a dev extra, so the script is compiled and its reads checked, not run
        compile(experiment.PLOT_SCRIPT, "plot.py", "exec")
        read = {
            node.slice.value
            for node in ast.walk(ast.parse(experiment.PLOT_SCRIPT))
            if isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id in ("stats", "reference")
        }
        assert read == {"x", "mean_rho", "var_rho"}
        field = StatField(np.zeros(1), np.zeros((1, 3)), np.zeros((1, 3)))
        assert read <= experiment._stat_columns(field).keys()

    def test_gamma_reaches_the_projection_and_the_reference(self, tmp_path):
        gamma = 5 / 3
        cfg = tiny_config(gamma=gamma, t_end=0.005, output_dir="case")
        artifacts = run_experiment(cfg, tmp_path)
        assert artifacts.exit_code == 0

        def read(name):
            with open(artifacts.out_dir / name, newline="") as fh:
                rows = list(csv.DictReader(fh))
            return {key: np.array([float(row[key]) for row in rows]) for key in rows[0]}

        reference, snapshot = read("reference.csv"), read("snapshot.csv")
        t_final = read("telemetry.csv")["t"][-1]
        mean, var = reference_statistics(snapshot["x"], t_final, cfg.ic(), EulerEntropy(gamma))
        for k, name in enumerate(("rho", "m", "E")):
            assert np.array_equal(reference[f"mean_{name}"], mean[:, k])
            assert np.array_equal(reference[f"var_{name}"], var[:, k])
        # the far-left cell is still at the left data, whose energy is p_l / (gamma - 1)
        assert snapshot["u2_mom0"][0] == pytest.approx(cfg.p_l / (gamma - 1.0), rel=1e-12)

    def test_snapshot_and_stats_schemas(self, tmp_path):
        artifacts = run_experiment(tiny_config(output_dir="case"), tmp_path)
        snapshot = (artifacts.out_dir / "snapshot.csv").read_text().splitlines()
        assert snapshot[0].split(",")[:4] == ["x", "u0_mom0", "u0_mom1", "u0_mom2"]
        assert len(snapshot) == 60 + 1
        stats = (artifacts.out_dir / "stats.csv").read_text().splitlines()
        assert stats[0] == "x,mean_rho,var_rho,mean_m,var_m,mean_E,var_E"
        errors = (artifacts.out_dir / "errors.csv").read_text().splitlines()
        assert errors[0].startswith("x,err_mean_rho,err_var_rho")
        summary = (artifacts.out_dir / "summary.csv").read_text().splitlines()
        assert summary[0] == "deltaE,deltaVar,l1_mean,l2_mean,l1_var,l2_var"
        values = [float(tok) for tok in summary[1].split(",")]
        assert all(np.isfinite(values))

    def test_telemetry_matches_step_count(self, tmp_path):
        """telemetry.csv is the run's StepDiagnostics: their field names are its
        header, and each row parses back to its step's record exactly."""
        cfg = tiny_config(output_dir="case")
        artifacts = run_experiment(cfg, tmp_path)
        with open(artifacts.out_dir / "telemetry.csv", newline="") as fh:
            header, *rows = csv.reader(fh)
        fields = dataclasses.fields(StepDiagnostics)
        assert header == [f.name for f in fields]
        assert len(rows) == artifacts.n_steps > 0
        solver, grid, ic = cfg.build_solver(), cfg.grid(), cfg.ic()
        _, telemetry = solver.run(
            project_ic(grid.centers(), cfg.degree, ic, solver.physics),
            project_ic(grid.ghost_centers(), cfg.degree, ic, solver.physics),
        )
        parse = {"int": int, "float": float}
        parsed = [[parse[f.type](cell) for f, cell in zip(fields, row)] for row in rows]
        assert parsed == [list(dataclasses.astuple(d)) for d in telemetry]

    def test_run_log_reports_newton_throughput(self, tmp_path):
        artifacts = run_experiment(tiny_config(output_dir="case"), tmp_path)
        with open(artifacts.out_dir / "telemetry.csv", newline="") as fh:
            total = sum(int(row["total_newton_iters"]) for row in csv.DictReader(fh))
        log = dict(
            line.split(": ", 1)
            for line in (artifacts.out_dir / "run.log").read_text().splitlines()
        )
        assert total > 0
        assert int(log["newton_cell_iterations"]) == total
        rate = float(log["newton_cell_iters_per_s"])
        assert rate == pytest.approx(total / artifacts.runtime, abs=0.05)
        assert float(log["wall_seconds"]) == pytest.approx(artifacts.runtime, abs=5e-4)

    def test_run_log_times_the_writing_phase(self, tmp_path):
        artifacts = run_experiment(tiny_config(output_dir="case"), tmp_path)
        log = dict(
            line.split(": ", 1)
            for line in (artifacts.out_dir / "run.log").read_text().splitlines()
        )
        assert float(log["write_seconds"]) >= 0

    def test_rerunning_emitted_config_is_byte_identical(self, tmp_path):
        first = run_experiment(tiny_config(output_dir="one"), tmp_path)
        echoed = parse_config((first.out_dir / "config.cfg").read_text())
        second = run_experiment(
            dataclasses.replace(echoed, output_dir="two"), tmp_path
        )
        for name in ARTIFACTS:
            if name.endswith(".csv"):
                assert (first.out_dir / name).read_bytes() == (
                    second.out_dir / name
                ).read_bytes(), name

    def test_solver_abort_writes_log_and_exit_code(self, tmp_path):
        cfg = tiny_config(closure="sg", output_dir="broken")
        artifacts = run_experiment(cfg, tmp_path)
        assert artifacts.exit_code == 3
        assert "BreakdownError" in artifacts.error
        log = (artifacts.out_dir / "run.log").read_text()
        assert "status: failed" in log
        assert (artifacts.out_dir / "config.cfg").is_file()
        assert not (artifacts.out_dir / "snapshot.csv").exists()

    def test_failed_rerun_leaves_no_earlier_results(self, tmp_path):
        assert run_experiment(tiny_config(output_dir="x"), tmp_path).exit_code == 0
        rerun = run_experiment(tiny_config(closure="sg", output_dir="x"), tmp_path)
        assert rerun.exit_code == 3
        assert sorted(path.name for path in rerun.out_dir.iterdir()) == ["config.cfg", "run.log"]

    def test_inadmissible_dual_ansatz_exits_3_with_its_cell(self, tmp_path):
        """A filter this strong drives the regularized closure's density to 0."""
        cfg = load_config(
            "sod-fipm-exp-desk",
            overrides=["filter_strength=1e6", "n_cells=100", "output_dir=strong"],
        )
        artifacts = run_experiment(cfg, tmp_path)
        assert artifacts.exit_code == 3
        assert artifacts.error.startswith("BreakdownError: ansatz left the admissible set")
        assert artifacts.error.endswith("(cell 50, node 0, step 0) at x = 0.505")

    def test_sg_desk_breakdown_log_names_the_cell_centre(self, tmp_path):
        cfg = load_config("sod-sg-desk")
        artifacts = run_experiment(cfg, tmp_path)
        assert artifacts.exit_code == 3
        log = (artifacts.out_dir / "run.log").read_text()
        assert "(cell 182, node 0, step 0) at x = 0.45625\n" in log
        assert sorted(path.name for path in artifacts.out_dir.iterdir()) == ["config.cfg", "run.log"]
        assert (artifacts.out_dir / "config.cfg").read_text() == cfg.to_text()
        assert [line for line in log.splitlines() if not line.startswith("wall_seconds:")] == [
            "status: failed",
            "closure: sg",
            "filter: none",
            "error: BreakdownError: ansatz left the admissible set"
            " (cell 182, node 0, step 0) at x = 0.45625",
        ]

    def test_collapsed_time_step_exits_3(self, tmp_path, monkeypatch):
        step = MomentSolver.step

        def step_at_its_end_time(self, state):
            self.grid = dataclasses.replace(self.grid, t_end=state.t)
            return step(self, state)

        monkeypatch.setattr(MomentSolver, "step", step_at_its_end_time)
        artifacts = run_experiment(tiny_config(output_dir="collapsed"), tmp_path)
        assert artifacts.exit_code == 3
        assert artifacts.error.startswith("InadmissibleStateError: time step collapsed")
        assert "status: failed" in (artifacts.out_dir / "run.log").read_text()

    def test_step_cap_exits_3(self, tmp_path, monkeypatch):
        monkeypatch.setattr(solver_module, "MAX_STEPS", 2)
        artifacts = run_experiment(tiny_config(output_dir="capped"), tmp_path)
        assert artifacts.exit_code == 3
        assert artifacts.error.startswith("FipmError: step cap reached at step 2, t = ")

    def test_programming_error_propagates(self, tmp_path, monkeypatch):
        """Only a FipmError is a solver failure; any other error is not turned into exit 3."""

        def broken_step(self, state):
            raise RuntimeError("broken step")

        monkeypatch.setattr(MomentSolver, "step", broken_step)
        with pytest.raises(RuntimeError, match="broken step"):
            run_experiment(tiny_config(output_dir="broken"), tmp_path)

    def test_output_root_env_variable(self, tmp_path, monkeypatch):
        monkeypatch.setenv("FIPM_OUTPUT_ROOT", str(tmp_path / "rooted"))
        artifacts = run_experiment(tiny_config(output_dir="case"))
        assert artifacts.out_dir == tmp_path / "rooted" / "case"
        assert (artifacts.out_dir / "summary.csv").is_file()


class TestSweep:
    def test_sweep_runs_each_value_in_own_directory(self, tmp_path):
        cfg = tiny_config(output_dir="sw")
        result = sweep(cfg, "eta", ["0", "1e-3"], tmp_path)
        assert [row.value for row in result.rows] == ["0", "1e-3"]
        assert all(row.error is None for row in result.rows)
        assert (tmp_path / "sw" / "sweep-eta" / "eta-0" / "summary.csv").is_file()
        assert (tmp_path / "sw" / "sweep-eta" / "eta-1e-3" / "summary.csv").is_file()
        assert result.table_path == tmp_path / "sw" / "sweep-eta" / "sweep.csv"
        table = result.table_path.read_text().splitlines()
        assert table[0] == "value,deltaE,deltaVar"
        assert len(table) == 3

    def test_sweep_writes_no_path_of_the_base_run(self, tmp_path):
        cfg = tiny_config(output_dir="sw")
        run_experiment(cfg, tmp_path)
        run_files = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        sweep(cfg, "eta", ["0", "1e-3"], tmp_path)
        sweep_files = {path for path in tmp_path.rglob("*") if path.is_file()} - set(run_files)
        assert {path: path.read_bytes() for path in run_files} == run_files
        assert all(path.is_relative_to(tmp_path / "sw" / "sweep-eta") for path in sweep_files)
        echo = tmp_path / "sw" / "sweep-eta" / "config.cfg"
        assert echo in sweep_files
        assert parse_config(echo.read_text()) == cfg

    def test_sweep_rerun_rewrites_its_table_and_keeps_earlier_values(self, tmp_path):
        sweep(tiny_config(output_dir="sw"), "eta", ["0"], tmp_path)
        rerun = sweep(tiny_config(output_dir="sw", cfl=0.4), "eta", ["1e-3"], tmp_path)
        assert [line.split(",")[0] for line in rerun.table_path.read_text().splitlines()] == [
            "value", "1e-3"
        ]
        sweep_dir = tmp_path / "sw" / "sweep-eta"
        assert parse_config((sweep_dir / "config.cfg").read_text()).cfl == 0.4
        assert (sweep_dir / "eta-0" / "summary.csv").is_file()

    def test_two_sweeps_write_identical_tables(self, tmp_path):
        values = ["0", "1e-3", "-1"]
        first = sweep(tiny_config(output_dir="one"), "eta", values, tmp_path)
        second = sweep(tiny_config(output_dir="two"), "eta", values, tmp_path)
        assert first.table_path.read_bytes() == second.table_path.read_bytes()

    def test_sweep_records_failures_and_continues(self, tmp_path):
        cfg = tiny_config(output_dir="sw")
        result = sweep(cfg, "eta", ["-1", "1e-3"], tmp_path)
        assert result.rows[0].error is not None
        assert np.isnan(result.rows[0].deltaE)
        assert result.rows[1].error is None
        empty_region = sweep(cfg, "n_cells", ["4"], tmp_path).rows[0]
        assert "holds no interior cell center" in empty_region.error
        assert np.isnan(empty_region.deltaE)

    def test_empty_value_list_gives_empty_table(self, tmp_path):
        result = sweep(tiny_config(output_dir="sw"), "eta", [], tmp_path)
        assert result.rows == []
        assert result.table_path.read_text().splitlines() == ["value,deltaE,deltaVar"]

    def test_repeated_values_rejected_before_any_run(self, tmp_path):
        with pytest.raises(ConfigError, match="repeat: '0'"):
            sweep(tiny_config(output_dir="sw"), "eta", ["0", "1e-3", " 0"], tmp_path)
        assert not (tmp_path / "sw").exists()

    def test_values_repeated_as_numbers_rejected_before_any_run(self, tmp_path):
        with pytest.raises(ConfigError, match="repeat: '0.001', '1E-3', '1e-3'$"):
            sweep(tiny_config(output_dir="sw"), "eta", ["1e-3", "0.001", "abc", "1E-3"], tmp_path)
        assert not (tmp_path / "sw").exists()

    def test_value_that_does_not_convert_stays_its_nan_row(self, tmp_path):
        result = sweep(tiny_config(output_dir="sw"), "eta", ["abc", "1e-3"], tmp_path)
        assert "expects a finite float, got 'abc'" in result.rows[0].error
        assert np.isnan(result.rows[0].deltaE)
        assert result.rows[1].error is None
        with pytest.raises(ConfigError, match="repeat: 'abc'$"):
            sweep(tiny_config(output_dir="sw2"), "eta", ["abc", "abc"], tmp_path)

    def test_non_numeric_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sweepable"):
            sweep(tiny_config(), "closure", ["sg"], tmp_path)


class TestScanFigure1:
    def test_reruns_are_byte_identical_and_share_the_raster(self, tmp_path):
        cfg = ScanConfig(resolution=24, output_dir="scan")
        runs = [scan_figure1(cfg, tmp_path / root) for root in ("one", "two")]
        files = [sorted(path.name for path in run.out_dir.iterdir()) for run in runs]
        assert files[0] == files[1]
        for name in files[0]:
            assert (runs[0].out_dir / name).read_bytes() == (runs[1].out_dir / name).read_bytes()
        rasters = [
            runs[0].out_dir / f"{tag}-{spec.strength!r}.csv" for tag, spec in cfg.filter_specs()
        ]
        assert len(rasters) == 8
        shared = set()
        for path in rasters:
            lines = path.read_text().splitlines()
            assert lines[0] == "u1,u2,inside_before,inside_after"
            assert len(lines) - 1 == 24 * 24
            shared.add(tuple(line.rsplit(",", 1)[0] for line in lines))
        assert len(shared) == 1

    def test_every_raster_matches_the_csv_module(self, tmp_path):
        # 10 000 rows: a raster crosses a ``ROWS_PER_WRITE`` block and a ``COPY_BYTES`` chunk
        cfg = ScanConfig(resolution=100, output_dir="scan")
        out_dir = scan_figure1(cfg, tmp_path).out_dir
        assert (out_dir / "exp-0.05.csv").stat().st_size > experiment.COPY_BYTES
        for tag, spec in cfg.filter_specs():
            scan = filter_image_scan(spec, resolution=cfg.resolution)
            reference_write_table(tmp_path / "want.csv", vars(scan))
            got = (out_dir / f"{tag}-{spec.strength!r}.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes(), (tag, spec.strength)

    def test_rerun_over_other_strengths_leaves_one_raster_per_summary_row(self, tmp_path):
        scan_figure1(ScanConfig(resolution=8, exp_exponents=(0.05, 0.1), output_dir="s"), tmp_path)
        rerun = scan_figure1(
            ScanConfig(resolution=8, exp_exponents=(0.2,), fp_strengths=(), output_dir="s"),
            tmp_path,
        )
        names = sorted(path.name for path in rerun.out_dir.iterdir())
        assert names == ["config.cfg", "exp-0.2.csv", "scan-summary.csv"]
        summary = (rerun.out_dir / "scan-summary.csv").read_text().splitlines()
        assert summary[1:] == [f"exponential,0.2,{rerun.rows[0][2]},{rerun.rows[0][3]}"]

    def test_negative_zero_strength_raster_is_removed_by_a_rerun(self, tmp_path):
        # -0.0 passes the nonnegative check, so it must be written under a name a rerun removes
        text = "exp_exponents = -0.0\nfp_strengths =\nresolution = 4\noutput_dir = s\n"
        out_dir = scan_figure1(parse_scan_config(text), tmp_path).out_dir
        assert "exp_exponents = 0.0\n" in (out_dir / "config.cfg").read_text()
        scan_figure1(
            ScanConfig(resolution=4, exp_exponents=(0.1,), fp_strengths=(), output_dir="s"),
            tmp_path,
        )
        names = sorted(path.name for path in out_dir.iterdir())
        assert names == ["config.cfg", "exp-0.1.csv", "scan-summary.csv"]

    def test_rerun_removes_only_the_names_the_scan_writes(self, tmp_path):
        first = ScanConfig(resolution=4, exp_exponents=(0.2,), fp_strengths=(1e-5,), output_dir="s")
        out_dir = scan_figure1(first, tmp_path).out_dir
        assert (out_dir / "fp-1e-05.csv").is_file()
        for name in ("exp-notes.csv", "fp-draft.csv"):
            (out_dir / name).write_text("kept\n")
        scan_figure1(
            ScanConfig(resolution=4, exp_exponents=(0.1,), fp_strengths=(), output_dir="s"),
            tmp_path,
        )
        names = sorted(path.name for path in out_dir.iterdir())
        assert names == [
            "config.cfg", "exp-0.1.csv", "exp-notes.csv", "fp-draft.csv", "scan-summary.csv"
        ]
        assert (out_dir / "fp-draft.csv").read_text() == "kept\n"


# -- command-line interface ---------------------------------------------------------


class TestCli:
    def test_dry_run_echoes_resolved_config(self, capsys):
        code = main(["run", "sod-ipm", "--dry-run"])
        assert code == 0
        echoed = parse_config(capsys.readouterr().out)
        assert echoed == load_config("sod-ipm")

    def test_run_with_overrides(self, tmp_path, capsys):
        code = main(
            ["run", "sod-ipm-desk", "--output-root", str(tmp_path)]
            + [f"--set={kv}" for kv in TINY_OVERRIDES]
            + ["--set", "output_dir=case"]
        )
        assert code == 0
        assert "wrote" in capsys.readouterr().out
        assert (tmp_path / "case" / "summary.csv").is_file()

    def test_configuration_errors_exit_2(self, capsys):
        assert main(["run", "sod-ipm", "--set", "eta=-1", "--dry-run"]) == 2
        assert "eta" in capsys.readouterr().err
        assert main(["run", "no-such-thing", "--dry-run"]) == 2
        capsys.readouterr()
        assert main(["run", "sod-fipm-exp-desk", "--set", "n_cells=4", "--dry-run"]) == 2
        assert "holds no interior cell center" in capsys.readouterr().err
        assert main(["run", "sod-ipm-desk", "--set", "closure=fsg", "--dry-run"]) == 2
        assert "closure must be one of sg, ipm" in capsys.readouterr().err
        assert main(["run", "sod-ipm-desk", "--set", "filter=erfc", "--dry-run"]) == 2
        assert "filter must be one of none, exponential, fokker-planck" in capsys.readouterr().err

    def test_repeated_set_key_exits_2(self, capsys):
        argv = ["run", "sod-ipm-desk", "--set", "n_cells=10", "--set", "n_cells=20", "--dry-run"]
        assert main(argv) == 2
        assert "duplicate key 'n_cells'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "preset,overrides,key",
        [
            ("sod-ipm-desk", ["filter_strength=5", "filter_order=0"], "filter_strength"),
            ("sod-ipm-desk", ["filter_order=0"], "filter_order"),
            ("sod-fipm-exp-desk", ["filter=fokker-planck", "filter_order=0"], "filter_order"),
            ("sod-fipm-fp-desk", ["filter_order=3"], "filter_order"),
        ],
    )
    def test_filter_keys_the_filter_does_not_read_exit_2(self, preset, overrides, key, capsys):
        sets = [arg for item in overrides for arg in ("--set", item)]
        assert main(["run", preset, *sets, "--dry-run"]) == 2
        err = capsys.readouterr().err
        assert f"key '{key}' is not read by filter" in err

    @pytest.mark.parametrize("key", ["t_end", "filter_strength", "eta"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_values_exit_2(self, key, value, capsys):
        assert main(["run", "sod-ipm-desk", "--set", f"{key}={value}", "--dry-run"]) == 2
        assert f"key '{key}' expects a finite float" in capsys.readouterr().err

    def test_gamma_at_most_one_exits_2(self, tmp_path, capsys):
        code = main(
            ["run", "sod-ipm-desk", "--set", "gamma=1.0", "--output-root", str(tmp_path)]
        )
        assert code == 2
        assert "gamma must exceed 1" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_solver_abort_exits_3(self, tmp_path, capsys):
        code = main(
            ["run", "sod-sg-desk", "--output-root", str(tmp_path)]
            + [f"--set={kv}" for kv in TINY_OVERRIDES]
        )
        assert code == 3
        assert "run failed" in capsys.readouterr().err

    def test_zero_horizon_still_closes_the_initial_data(self, tmp_path, capsys):
        code = main(["run", "sod-sg-desk", "--set", "t_end=0", "--output-root", str(tmp_path)])
        assert code == 3
        assert "(cell 182, node 0, step 0) at x = 0.45625" in capsys.readouterr().err

    def test_sweep_prints_table(self, tmp_path, capsys):
        code = main(
            ["sweep", "sod-ipm-desk", "--key", "eta", "--values", "0,1e-3",
             "--output-root", str(tmp_path)]
            + [f"--set={kv}" for kv in TINY_OVERRIDES]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("value,deltaE,deltaVar,runtime")
        assert "0," in out and "1e-3," in out

    def test_sweep_reports_a_failed_value_on_stderr(self, tmp_path, capsys):
        code = main(
            ["sweep", "sod-ipm-desk", "--key", "eta", "--values", "abc,1e-3",
             "--output-root", str(tmp_path)]
            + [f"--set={kv}" for kv in TINY_OVERRIDES]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "\nabc,nan,nan," in captured.out
        assert "# abc: sweep: key 'eta' expects a finite float, got 'abc'" in captured.err

    def test_sweep_set_of_the_swept_key_exits_2(self, tmp_path, capsys):
        argv = ["sweep", "sod-sg-desk", "--key", "cfl", "--set", " cfl =0.3", "--values", "0.4"]
        assert main([*argv, "--output-root", str(tmp_path)]) == 2
        assert "'cfl'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_sweep_repeated_values_exit_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "sod-ipm-desk", "--key", "eta", "--values", "0,0",
             "--output-root", str(tmp_path)]
            + [f"--set={kv}" for kv in TINY_OVERRIDES]
        )
        assert code == 2
        assert "sweep values repeat" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_sweep_values_equal_as_numbers_exit_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "sod-ipm-desk", "--key", "eta", "--values", "1e-3,0.001,1E-3",
             "--output-root", str(tmp_path)]
            + [f"--set={kv}" for kv in TINY_OVERRIDES]
        )
        assert code == 2
        assert "sweep values repeat: '0.001', '1E-3', '1e-3'" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())

    def test_module_entry_point_runs_from_source(self):
        src = str(Path(fipm.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-m", "fipm", "run", "sod-ipm-desk", "--dry-run"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
            timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert parse_config(proc.stdout) == load_config("sod-ipm-desk")

    def test_scan_figure1_writes_rasters(self, tmp_path, capsys):
        scan_cfg = tmp_path / "scan.cfg"
        scan_cfg.write_text(
            "resolution = 24\nexp_exponents = 0.2\nfp_strengths = 0.1\n"
            "output_dir = scan\n"
        )
        code = main(
            ["scan-figure1", str(scan_cfg), "--output-root", str(tmp_path)]
        )
        assert code == 0
        assert (tmp_path / "scan" / "exp-0.2.csv").is_file()
        assert (tmp_path / "scan" / "fp-0.1.csv").is_file()
        summary = (tmp_path / "scan" / "scan-summary.csv").read_text().splitlines()
        assert summary[0] == "filter,strength,n_inside,n_escaped"
        fp_rows = [line for line in summary[1:] if line.startswith("fokker-planck")]
        assert all(line.split(",")[-1] == "0" for line in fp_rows)

    @pytest.mark.parametrize(
        "filters, rasters",
        [
            ("exp_exponents =\nfp_strengths =\n", []),
            ("exp_exponents =\nfp_strengths = 0.1\n", ["fp-0.1.csv"]),
        ],
        ids=["no-filter", "one-filter"],
    )
    def test_scan_figure1_of_fewer_than_two_filters(self, tmp_path, filters, rasters):
        scan_cfg = tmp_path / "scan.cfg"
        scan_cfg.write_text(f"resolution = 8\n{filters}output_dir = scan\n")
        assert main(["scan-figure1", str(scan_cfg), "--output-root", str(tmp_path)]) == 0
        out_dir = tmp_path / "scan"
        assert sorted(path.name for path in out_dir.iterdir()) == [
            "config.cfg", *rasters, "scan-summary.csv"
        ]
        summary = (out_dir / "scan-summary.csv").read_text().splitlines()
        assert summary[0] == "filter,strength,n_inside,n_escaped"
        assert len(summary) == 1 + len(rasters)
        for name in rasters:
            assert len((out_dir / name).read_text().splitlines()) == 1 + 8 * 8

    def test_scan_config_errors_exit_2(self, tmp_path, capsys):
        scan_cfg = tmp_path / "scan.cfg"
        for text, message in [
            ("exp_exponents =\norder = 9\n", "key 'order' is not read"),
            ("exp_exponents = 0.1, 0.10\n", "exp_exponents values repeat: 0.1"),
        ]:
            scan_cfg.write_text(text)
            assert main(["scan-figure1", str(scan_cfg), "--output-root", str(tmp_path)]) == 2
            assert message in capsys.readouterr().err
        assert [path.name for path in tmp_path.iterdir()] == ["scan.cfg"]

    def test_presets_subcommand_lists_bundle(self, capsys):
        assert main(["presets"]) == 0
        assert "sod-ipm" in capsys.readouterr().out.split()


class TestCliSurface:
    """The options, defaults and required flags of each subcommand, as the parser declares them."""

    @pytest.mark.parametrize(
        "argv,parsed",
        [
            (
                ["run", "c"],
                {"command": "run", "config": "c", "overrides": [], "dry_run": False,
                 "output_root": None},
            ),
            (
                ["sweep", "c", "--key", "k", "--values", "v"],
                {"command": "sweep", "config": "c", "key": "k", "values": "v", "overrides": [],
                 "output_root": None},
            ),
            (
                ["scan-figure1", "c"],
                {"command": "scan-figure1", "config": "c", "dry_run": False, "output_root": None},
            ),
            (["presets"], {"command": "presets"}),
            (
                ["run", "c", "--set", "a=1", "--set=b=2", "--dry-run", "--output-root", "r"],
                {"command": "run", "config": "c", "overrides": ["a=1", "b=2"], "dry_run": True,
                 "output_root": "r"},
            ),
        ],
    )
    def test_minimal_argv_parses_to_the_declared_defaults(self, argv, parsed):
        got = vars(build_parser().parse_args(argv))
        got.pop("handler", None)
        assert got == parsed

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["run"],
            ["sweep", "sod-ipm-desk", "--values", "0"],
            ["sweep", "sod-ipm-desk", "--key", "eta"],
            ["sweep", "sod-ipm-desk", "--key", "eta", "--values", "0", "--dry-run"],
            ["scan-figure1", "figure1-scan", "--set", "a=b"],
            ["presets", "--output-root", "x"],
            ["presets", "extra"],
            ["no-such-command"],
        ],
    )
    def test_missing_and_foreign_options_exit_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args(argv)
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.startswith("usage: fipm")

    @pytest.mark.parametrize("command", ["run", "sweep", "scan-figure1", "presets"])
    def test_help_exits_0(self, command, capsys):
        with pytest.raises(SystemExit) as exit_info:
            build_parser().parse_args([command, "--help"])
        assert exit_info.value.code == 0
        assert capsys.readouterr().out.startswith(f"usage: fipm {command}")
