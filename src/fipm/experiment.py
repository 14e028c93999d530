"""Experiment orchestration: run a configuration and emit its artifact set.

Every run writes, inside ``<output root>/<output_dir>``:

  config.cfg     canonical configuration echo (re-runnable)
  snapshot.csv   final moments, one row per cell
  telemetry.csv  per-step time step and dual-solver work
  stats.csv      mean/variance per conserved component from the final moments
  reference.csv  exact-solution statistics on the same grid
  errors.csv     numeric-minus-reference mean/variance errors
  summary.csv    oscillation metrics over the report region plus error norms
  plot.py        standalone matplotlib script over these CSVs
  run.log        human-readable outcome (the only file with wall time)

A sweep adds sweep.csv (value, deltaE, deltaVar per value) to the base
directory; a realizability scan writes its config.cfg, one exp-<strength>.csv
or fp-<strength>.csv raster per strength, and scan-summary.csv.

Every CSV goes through ``_write_table``, whose one format rule is: floats as
their shortest round-trip ``repr``, ints and bools as integers, strings as
they are.  Timing never enters a CSV, so every CSV is a deterministic function
of the configuration and rerunning an emitted config.cfg reproduces it byte
for byte.
"""

from __future__ import annotations

import csv
import os
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import euler
from .config import _TYPES, ExperimentConfig, ScanConfig, _convert
from .errors import ConfigError, FipmError
from .realizability import filter_image_scan
from .solver import RunResult, project_ic
from .stats import StatField, delta_metrics, error_norms, stats_from_moments

COMPONENTS = ("rho", "m", "E")

SUMMARY_FIELDS = ("deltaE", "deltaVar", "l1_mean", "l2_mean", "l1_var", "l2_var")


def resolve_output_root(explicit: str | os.PathLike | None = None) -> Path:
    """Explicit argument, else the FIPM_OUTPUT_ROOT variable, else the cwd."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("FIPM_OUTPUT_ROOT")
    return Path(env) if env else Path.cwd()


def _write_table(path: Path, columns: dict):
    """Write a CSV with one column per entry of ``columns``; the keys are the header.

    Each column is converted once, by its dtype: floats as their shortest
    round-trip ``repr``, ints and bools as integers, strings as they are.
    """
    cells = []
    for values in columns.values():
        values = np.asarray(values)
        if values.dtype.kind == "f":
            cells.append([repr(v) for v in values.tolist()])
        elif values.dtype.kind in "biu":
            cells.append([str(int(v)) for v in values.tolist()])
        else:
            cells.append(values.tolist())
    with open(path, "w", newline="") as handle:
        writer = csv.writer(handle)
        writer.writerow(columns)
        writer.writerows(zip(*cells, strict=True))


def _stat_columns(field: StatField, prefix="") -> dict:
    """``x`` then interleaved mean/variance columns, one pair per component."""
    columns = {"x": field.x}
    for k, name in enumerate(field.components):
        columns[f"{prefix}mean_{name}"] = field.mean[:, k]
        columns[f"{prefix}var_{name}"] = field.var[:, k]
    return columns


PLOT_SCRIPT = '''"""Plot the density mean and variance of this run against the reference.

Usage: python3 plot.py [--out density.png]
"""

import argparse
import csv
from pathlib import Path

import matplotlib

matplotlib.use("Agg")
import matplotlib.pyplot as plt


def read_columns(path):
    with open(path, newline="") as handle:
        rows = list(csv.reader(handle))
    header, data = rows[0], rows[1:]
    return {name: [float(row[i]) for row in data] for i, name in enumerate(header)}


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="density.png")
    args = parser.parse_args()
    here = Path(__file__).resolve().parent
    stats = read_columns(here / "stats.csv")
    reference = read_columns(here / "reference.csv")

    fig, (ax_mean, ax_var) = plt.subplots(1, 2, figsize=(11, 4))
    ax_mean.plot(reference["x"], reference["mean_rho"], "r-", lw=1.2, label="exact")
    ax_mean.plot(stats["x"], stats["mean_rho"], "k--", lw=1.0, label="numeric")
    ax_mean.set_xlabel("x")
    ax_mean.set_ylabel("E[rho]")
    ax_mean.legend()
    ax_var.plot(reference["x"], reference["var_rho"], "b-", lw=1.2, label="exact")
    ax_var.plot(stats["x"], stats["var_rho"], "k--", lw=1.0, label="numeric")
    ax_var.set_xlabel("x")
    ax_var.set_ylabel("Var[rho]")
    ax_var.legend()
    fig.tight_layout()
    fig.savefig(here / args.out, dpi=150)
    print(f"wrote {here / args.out}")


if __name__ == "__main__":
    main()
'''


@dataclass(frozen=True)
class RunArtifacts:
    """Outcome of one experiment run."""

    out_dir: Path
    exit_code: int
    summary: dict | None
    error: str | None
    runtime: float
    n_steps: int


def _log_lines(status, cfg, runtime, extra):
    lines = [f"status: {status}", f"closure: {cfg.closure}", f"filter: {cfg.filter}"]
    lines += extra
    lines.append(f"wall_seconds: {runtime:.3f}")
    return "\n".join(lines) + "\n"


def run_experiment(cfg: ExperimentConfig, output_root=None) -> RunArtifacts:
    """Run one configuration and write its artifact directory.

    Solver aborts (breakdown, dual non-convergence, inadmissible states) are
    recorded in run.log and reported with exit code 3; the configuration echo
    is always written first so failures stay reproducible too.
    """
    out_dir = resolve_output_root(output_root) / cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.cfg").write_text(cfg.to_text())

    start = time.perf_counter()
    grid = cfg.grid()
    ic = cfg.ic()
    try:
        solver = cfg.build_solver()
        u0 = project_ic(grid.centers(), cfg.degree, ic, cfg.gamma)
        ghosts = project_ic(grid.ghost_centers(), cfg.degree, ic, cfg.gamma)
        result: RunResult = solver.run(u0, ghosts)
    except (FipmError, RuntimeError) as err:
        runtime = time.perf_counter() - start
        message = f"{type(err).__name__}: {err}"
        (out_dir / "run.log").write_text(
            _log_lines("failed", cfg, runtime, [f"error: {message}"])
        )
        return RunArtifacts(out_dir, 3, None, message, runtime, 0)
    runtime = time.perf_counter() - start

    x = grid.centers()
    moments = result.moments
    snapshot = {"x": x}
    for k in range(moments.shape[2]):
        for i in range(moments.shape[1]):
            snapshot[f"u{k}_mom{i}"] = moments[:, i, k]
    _write_table(out_dir / "snapshot.csv", snapshot)
    telemetry = result.telemetry
    _write_table(
        out_dir / "telemetry.csv",
        {
            "step": [d.step for d in telemetry],
            "t": [d.t for d in telemetry],
            "dt": [d.dt for d in telemetry],
            "total_newton_iters": [d.newton_total for d in telemetry],
            "max_newton_iters": [d.newton_max for d in telemetry],
            "max_grad_norm": [d.grad_max for d in telemetry],
        },
    )

    numeric = stats_from_moments(x, result.moments, COMPONENTS)
    ref_mean, ref_var = euler.reference_statistics(
        x, result.t_final, cfg.x0, cfg.sigma, *ic.primitive_states(), gamma=cfg.gamma
    )
    reference = StatField(x=x, mean=ref_mean, var=ref_var, components=COMPONENTS)
    _write_table(out_dir / "stats.csv", _stat_columns(numeric))
    _write_table(out_dir / "reference.csv", _stat_columns(reference))
    errors = StatField(
        x=x, mean=numeric.mean - ref_mean, var=numeric.var - ref_var, components=COMPONENTS
    )
    _write_table(out_dir / "errors.csv", _stat_columns(errors, prefix="err_"))

    d_mean, d_var = delta_metrics(numeric, reference, cfg.delta_region())
    summary = {"deltaE": d_mean, "deltaVar": d_var, **error_norms(numeric, reference)}
    _write_table(out_dir / "summary.csv", {name: [summary[name]] for name in SUMMARY_FIELDS})
    (out_dir / "plot.py").write_text(PLOT_SCRIPT)
    (out_dir / "run.log").write_text(
        _log_lines(
            "ok",
            cfg,
            runtime,
            [
                f"steps: {result.n_steps}",
                f"t_final: {float(result.t_final)!r}",
                f"deltaE: {summary['deltaE']!r}",
                f"deltaVar: {summary['deltaVar']!r}",
            ],
        )
    )
    return RunArtifacts(out_dir, 0, summary, None, runtime, result.n_steps)


# -- parameter sweeps ---------------------------------------------------------------


@dataclass(frozen=True)
class SweepRow:
    value: str
    deltaE: float
    deltaVar: float
    runtime: float
    error: str | None


@dataclass(frozen=True)
class SweepResult:
    out_dir: Path
    key: str
    rows: list[SweepRow]

    @property
    def table_path(self) -> Path:
        return self.out_dir / "sweep.csv"


def sweep(cfg: ExperimentConfig, key: str, values, output_root=None) -> SweepResult:
    """Run the configuration once per value of one numeric key.

    Each run lands in its own subdirectory of the base output_dir; failures
    (bad value, solver abort) are recorded as NaN rows and the sweep
    continues.  An empty value list yields an empty table.  A value listed
    twice would share one directory, so repeats are rejected before any run.
    """
    if _TYPES.get(key) not in ("float", "int"):
        raise ConfigError(f"'{key}' is not a sweepable numeric configuration key")
    values = [str(raw).strip() for raw in values]
    repeated = sorted({raw for raw in values if values.count(raw) > 1})
    if repeated:
        raise ConfigError(f"sweep values repeat: {', '.join(map(repr, repeated))}")
    base_dir = resolve_output_root(output_root) / cfg.output_dir
    base_dir.mkdir(parents=True, exist_ok=True)

    nan = float("nan")
    rows: list[SweepRow] = []
    for raw in values:
        started = time.perf_counter()
        try:
            value = _convert(_TYPES[key], key, raw, "sweep")
            sub_cfg = replace(
                cfg, **{key: value, "output_dir": f"{cfg.output_dir}/{key}-{raw}"}
            )
            artifacts = run_experiment(sub_cfg, output_root)
        except ConfigError as err:
            rows.append(SweepRow(raw, nan, nan, time.perf_counter() - started, str(err)))
            continue
        summary = artifacts.summary or {"deltaE": nan, "deltaVar": nan}
        rows.append(
            SweepRow(raw, summary["deltaE"], summary["deltaVar"], artifacts.runtime, artifacts.error)
        )

    result = SweepResult(out_dir=base_dir, key=key, rows=rows)
    _write_table(
        result.table_path,
        {
            "value": [r.value for r in rows],
            "deltaE": [r.deltaE for r in rows],
            "deltaVar": [r.deltaVar for r in rows],
        },
    )
    return result


# -- realizability raster scans -------------------------------------------------------


@dataclass(frozen=True)
class ScanArtifacts:
    out_dir: Path
    rows: list[tuple[str, float, int, int]]  # (filter, strength, n_inside, n_escaped)


def scan_figure1(cfg: ScanConfig, output_root=None) -> ScanArtifacts:
    """Raster the degree-two realizable set through both filter families.

    The exponential filter (applied at dt = 1, so its total exponent is the
    strength) loses points near the realizability boundary; the exact
    heat-semigroup filter keeps every raster point inside.
    """
    out_dir = resolve_output_root(output_root) / cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.cfg").write_text(cfg.to_text())

    rows = []
    for tag, spec in cfg.filter_specs():
        scan = filter_image_scan(spec, resolution=cfg.resolution)
        _write_table(
            out_dir / f"{tag}-{spec.strength!r}.csv",
            {
                "u1": scan.u1,
                "u2": scan.u2,
                "inside_before": scan.inside_before,
                "inside_after": scan.inside_after,
            },
        )
        rows.append((spec.kind.value, spec.strength, scan.n_inside, scan.n_escaped))

    header = ("filter", "strength", "n_inside", "n_escaped")
    _write_table(
        out_dir / "scan-summary.csv",
        {name: [row[i] for row in rows] for i, name in enumerate(header)},
    )
    return ScanArtifacts(out_dir=out_dir, rows=rows)
