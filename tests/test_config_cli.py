"""Configuration parsing, preset golden values, artifact emission, CLI exit codes."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import fipm
from fipm.cli import main
from fipm.config import (
    ScanConfig,
    list_presets,
    load_config,
    parse_config,
    parse_scan_config,
    read_config_text,
)
from fipm.errors import ConfigError
from fipm.experiment import _write_table, run_experiment, sweep
from fipm.filters import FilterKind, FilterSpec
from fipm.solver import Closure, EulerPhysics, GridConfig, MomentSolver

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
        with pytest.raises(ConfigError, match="form key=value"):
            parse_config(MINIMAL, overrides=["n_cells"])

    def test_echo_round_trips(self):
        cfg = parse_config(
            MINIMAL, overrides=["closure=fsg", "filter=l2", "filter_strength=0.25"]
        )
        assert parse_config(cfg.to_text()) == cfg


COMBINATION_FILTERS = ["none"] + [kind.value for kind in FilterKind]
#: every (closure, filter, eta) the paper pairs, with eta in {0, 1e-7}
ACCEPTED = {
    ("sg", "none", 0.0),
    *(("fsg", filt, 0.0) for filt in COMBINATION_FILTERS),
    ("ipm", "none", 0.0),
    ("ipm", "none", 1e-7),
    ("fipm-realizable", "fokker-planck", 0.0),
    *(("fipm-regularized", filt, 1e-7) for filt in COMBINATION_FILTERS),
}
assert len(ACCEPTED) == 14


class TestCompatibility:
    @pytest.mark.parametrize(
        "extra,message",
        [
            ("closure = sg\nfilter = l2\nfilter_strength = 0.1", "sg takes no filter"),
            ("closure = fsg\neta = 1e-7", "no regularization"),
            ("closure = ipm\nfilter = l2\nfilter_strength = 0.1", "ipm takes no filter"),
            (
                "closure = fipm-realizable\nfilter = exponential\nfilter_strength = 1.0",
                "requires the fokker-planck filter",
            ),
            (
                "closure = fipm-realizable\nfilter = fokker-planck\n"
                "filter_strength = 0.1\neta = 1e-7",
                "exact dual",
            ),
            (
                "closure = fipm-regularized\nfilter = exponential\nfilter_strength = 1.0",
                "requires eta > 0",
            ),
        ],
    )
    def test_incompatible_combinations_rejected(self, extra, message):
        text = MINIMAL.replace("closure = ipm", "") + extra + "\n"
        with pytest.raises(ConfigError, match=message):
            parse_config(text)

    @pytest.mark.parametrize("eta", [0.0, 1e-7])
    @pytest.mark.parametrize("filt", COMBINATION_FILTERS)
    @pytest.mark.parametrize("closure", [member.value for member in Closure])
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
        spec = None if filt == "none" else FilterSpec(FilterKind(filt), 0.1, order=2)
        try:
            MomentSolver(
                GridConfig(0.0, 1.0, 60, 0.01), 2, 6, EulerPhysics(),
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
                EulerPhysics(fields["gamma"]), closure=Closure(closure),
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
        assert exp.closure == "fipm-regularized"
        assert exp.filter == "exponential"
        assert exp.filter_strength == 2.0
        assert exp.filter_order == 10
        assert exp.eta == 1e-7
        fp = load_config("sod-fipm-fp")
        assert fp.closure == "fipm-realizable"
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

    def test_scan_preset_golden_values(self):
        text, _ = read_config_text("figure1-scan")
        cfg = parse_scan_config(text)
        assert cfg.resolution == 400
        assert cfg.order == 7
        assert cfg.exp_exponents == (0.05, 0.1, 0.2, 0.3)
        assert cfg.fp_strengths == (0.05, 0.1, 0.2, 0.3)

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


class TestRunExperiment:
    def test_emits_complete_artifact_set(self, tmp_path):
        artifacts = run_experiment(tiny_config(output_dir="case"), tmp_path)
        assert artifacts.exit_code == 0
        for name in ARTIFACTS:
            assert (artifacts.out_dir / name).is_file(), name

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
        artifacts = run_experiment(tiny_config(output_dir="case"), tmp_path)
        telemetry = (artifacts.out_dir / "telemetry.csv").read_text().splitlines()
        assert (
            telemetry[0]
            == "step,t,dt,total_newton_iters,max_newton_iters,max_grad_norm"
        )
        assert len(telemetry) - 1 == artifacts.n_steps > 0

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

    def test_ipm_with_eta_writes_the_regularized_runs_csvs(self, tmp_path):
        ipm = run_experiment(tiny_config(eta=1e-7, output_dir="ipm"), tmp_path)
        regularized = run_experiment(
            tiny_config(closure="fipm-regularized", eta=1e-7, output_dir="reg"), tmp_path
        )
        assert ipm.exit_code == regularized.exit_code == 0
        for name in ARTIFACTS:
            if name.endswith(".csv"):
                assert (ipm.out_dir / name).read_bytes() == (
                    regularized.out_dir / name
                ).read_bytes(), name

    def test_sg_desk_breakdown_log_names_the_cell_centre(self, tmp_path):
        artifacts = run_experiment(load_config("sod-sg-desk"), tmp_path)
        assert artifacts.exit_code == 3
        log = (artifacts.out_dir / "run.log").read_text()
        assert "(cell 182, node 0, step 0) at x = 0.45625\n" in log

    def test_collapsed_time_step_exits_3(self, tmp_path, monkeypatch):
        step = MomentSolver.step
        monkeypatch.setattr(
            MomentSolver, "step", lambda self, state, t_end: step(self, state, state.t)
        )
        artifacts = run_experiment(tiny_config(output_dir="collapsed"), tmp_path)
        assert artifacts.exit_code == 3
        assert artifacts.error.startswith("InadmissibleStateError: time step collapsed")
        assert "status: failed" in (artifacts.out_dir / "run.log").read_text()

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
        assert (tmp_path / "sw" / "eta-0" / "summary.csv").is_file()
        assert (tmp_path / "sw" / "eta-1e-3" / "summary.csv").is_file()
        table = result.table_path.read_text().splitlines()
        assert table[0] == "value,deltaE,deltaVar"
        assert len(table) == 3

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

    def test_empty_value_list_gives_empty_table(self, tmp_path):
        result = sweep(tiny_config(output_dir="sw"), "eta", [], tmp_path)
        assert result.rows == []
        assert result.table_path.read_text().splitlines() == ["value,deltaE,deltaVar"]

    def test_repeated_values_rejected_before_any_run(self, tmp_path):
        with pytest.raises(ConfigError, match="repeat: '0'"):
            sweep(tiny_config(output_dir="sw"), "eta", ["0", "1e-3", " 0"], tmp_path)
        assert not (tmp_path / "sw").exists()

    def test_non_numeric_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="sweepable"):
            sweep(tiny_config(), "closure", ["sg"], tmp_path)


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

    @pytest.mark.parametrize(
        "preset,overrides,key",
        [
            ("sod-ipm-desk", ["filter_strength=5", "filter_order=0"], "filter_strength"),
            ("sod-ipm-desk", ["filter_order=0"], "filter_order"),
            ("sod-fipm-exp-desk", ["filter=l2", "filter_order=0"], "filter_order"),
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

    def test_sweep_repeated_values_exit_2(self, tmp_path, capsys):
        code = main(
            ["sweep", "sod-ipm-desk", "--key", "eta", "--values", "0,0",
             "--output-root", str(tmp_path)]
            + [f"--set={kv}" for kv in TINY_OVERRIDES]
        )
        assert code == 2
        assert "sweep values repeat" in capsys.readouterr().err
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
