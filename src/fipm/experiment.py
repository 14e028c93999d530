r"""Experiment orchestration: run a configuration and emit its artifact set.

Every run writes, inside ``<output root>/<output_dir>``:

  config.cfg     canonical configuration echo (re-runnable)
  snapshot.csv   final moments, one row per cell
  telemetry.csv  one row per step, one column per StepDiagnostics field: time
                 step, dual-solver work and conservation residual
  stats.csv      mean/variance per conserved component from the final moments
  reference.csv  mean/variance over xi of the exact Riemann solution on the same
                 grid as a 100-node Gauss average, so not exact (ROADMAP item 1)
  errors.csv     numeric-minus-reference mean/variance errors
  summary.csv    oscillation metrics over the report region plus error norms
  plot.py        standalone matplotlib script over these CSVs
  run.log        human-readable outcome, Newton cell-iterations of the steps and
                 their rate, the wall time up to the end of the march
                 (wall_seconds) and of the statistics and artifacts after it
                 (write_seconds); the only file with wall time

A sweep writes sweep.csv (value, deltaE, deltaVar per value) and config.cfg
into ``<output_dir>/sweep-<key>``; a realizability scan writes its config.cfg,
one exp-<strength>.csv or fp-<strength>.csv raster per strength, and scan-summary.csv.

Every CSV is written by ``_write_table``, one table per call, as ``csv.writer``
writes it in its default dialect with floats as their shortest round-trip
``repr``; the scan formats only its first raster, and ``_write_flag_copies``
writes each later one as that file's bytes with its own ``inside_after`` cells.
Their docstrings give the format rule and the order of the writes.  Timing never
enters a CSV, so every CSV is a deterministic function of the configuration and
rerunning an emitted config.cfg reproduces it byte for byte.
"""

from __future__ import annotations

import contextlib
import os
import re
import time
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import euler
from .config import ExperimentConfig, ScanConfig, sweep_values
from .errors import ConfigError, FipmError
from .realizability import ScanResult, filter_image_scan
from .solver import StepDiagnostics
from .stats import StatField, delta_metrics, error_norms, stats_from_moments

COMPONENTS = ("rho", "m", "E")

#: the raster names ``scan_figure1`` writes, <exp|fp>-<repr of a strength>.csv
SCAN_RASTER = re.compile(r"(exp|fp)-(\d+\.\d+|\d(\.\d+)?e[-+]\d+)\.csv")

#: the files ``run_experiment`` writes, each under its fixed name
RUN_ARTIFACTS = (
    "config.cfg", "snapshot.csv", "telemetry.csv", "stats.csv", "reference.csv",
    "errors.csv", "summary.csv", "plot.py", "run.log",
)


def resolve_output_root(explicit: str | os.PathLike | None = None) -> Path:
    """Explicit argument, else the FIPM_OUTPUT_ROOT variable, else the cwd."""
    if explicit is not None:
        return Path(explicit)
    env = os.environ.get("FIPM_OUTPUT_ROOT")
    return Path(env) if env else Path.cwd()


_QUOTED = re.compile(r'[,"\r\n]')

#: rows that ``_write_table`` formats and writes at a time
ROWS_PER_WRITE = 8192
#: bytes of a first raster that ``_write_flag_copies`` reads and writes at a time
COPY_BYTES = 256 * 1024


def _csv_field(text: str, alone: bool) -> str:
    """``text`` as ``csv.QUOTE_MINIMAL`` writes it; ``alone``: the only field of its row."""
    if _QUOTED.search(text) or (alone and not text):
        return '"' + text.replace('"', '""') + '"'
    return text


def _column_blocks(values: np.ndarray, alone: bool, end: str):
    """One column's cells, each ended by ``end``, ``ROWS_PER_WRITE`` rows at a time."""
    kind = values.dtype.kind
    if kind == "f":
        # keyed by bit pattern, so -0.0 keeps its own text apart from 0.0
        keys, fmt = values.astype(np.float64, copy=False).view(np.int64), repr
    elif kind in "biu":
        # keyed in its own dtype, so a uint64 above 2**63 cannot wrap
        keys, fmt = values, lambda v: str(int(v))
    else:
        keys, fmt = values, lambda v: _csv_field(str(v), alone)
    ordered = np.sort(keys)
    distinct = np.concatenate((ordered[:1], ordered[1:][ordered[1:] != ordered[:-1]]))
    # the sorted copy is as long as the column; only its distinct values are needed
    del ordered
    shown = distinct.view(np.float64) if kind == "f" else distinct
    texts = np.array([fmt(v) + end for v in shown.tolist()], dtype=object)
    for start in range(0, len(keys), ROWS_PER_WRITE):
        yield texts[np.searchsorted(distinct, keys[start : start + ROWS_PER_WRITE])].tolist()


def _write_table(path: Path, columns: dict):
    r"""Write ``columns`` as the CSV at ``path``; its keys are the header.

    The bytes are those of ``csv.writer`` in its default dialect, fed floats
    as their shortest round-trip ``repr``, ints and bools as integers and
    strings as they are.  A row is its cells joined by ``,`` and ended by
    ``\r\n``, the header included, also with zero rows.  A numeric cell is
    never quoted.  A str cell, header names included, is wrapped in ``"``,
    with each inner ``"`` doubled, when it contains ``,``, ``"``, ``\r`` or
    ``\n``, or when it is the empty and only field of its row.

    Columns of unequal length raise ``ValueError`` before the file is opened.
    The header is written first, then the rows in blocks of ``ROWS_PER_WRITE``,
    so the text held at once is one block's whatever the table's length.  One
    sort finds a column's distinct values, and each is formatted once,
    followed by ``,`` or, in the last column, ``\r\n``.  A block, its cells
    interleaved row by row into one list, is written with one ``"".join``.
    """
    arrays = [np.asarray(values) for values in columns.values()]
    lengths = {name: len(values) for name, values in zip(columns, arrays)}
    if len(set(lengths.values())) > 1:
        rows = ", ".join(f"{name!r} has {n} rows" for name, n in lengths.items())
        raise ValueError(f"columns of {path.name} differ in length: {rows}")
    alone = len(arrays) == 1
    ends = [","] * (len(arrays) - 1) + ["\r\n"]
    blocks = [_column_blocks(values, alone, end) for values, end in zip(arrays, ends)]
    with open(path, "w", newline="") as handle:
        handle.write(",".join(_csv_field(str(name), alone) for name in columns) + "\r\n")
        for texts in zip(*blocks):
            cells = [None] * (len(texts) * len(texts[0]))
            for k, column in enumerate(texts):
                cells[k :: len(texts)] = column
            handle.write("".join(cells))


def _write_flag_copies(source: Path, copies: dict):
    r"""Write each ``path: flags`` entry of ``copies`` as a copy of ``source`` whose
    last column's cells are ``flags``.

    ``source`` is a CSV that ``_write_table`` wrote from number columns, the last
    one bool, under header names without ``\n``: its header is its first line,
    the only ``\r`` bytes after it end rows, and the byte before each is that
    row's ``0`` or ``1`` cell, so setting it moves no other byte.  ``source`` is
    read after its header in chunks of ``COPY_BYTES``, each cut after its last
    ``\n`` with the rest carried to the next, and every copy gets each chunk,
    with its own cells set, as bytes.
    """
    with contextlib.ExitStack() as stack:
        reader = stack.enter_context(open(source, "rb"))
        handles = {stack.enter_context(open(path, "wb")): flags for path, flags in copies.items()}
        header = reader.readline()
        for handle in handles:
            handle.write(header)
        row, rest = 0, b""
        while chunk := reader.read(COPY_BYTES):
            chunk = rest + chunk
            cut = chunk.rfind(b"\n") + 1
            block, rest = bytearray(chunk[:cut]), chunk[cut:]
            raw = np.frombuffer(block, np.uint8)
            cells = np.flatnonzero(raw == ord("\r")) - 1
            for handle, flags in handles.items():
                raw[cells] = np.where(flags[row : row + len(cells)], ord("1"), ord("0"))
                handle.write(block)
            row += len(cells)


def _stat_columns(field: StatField, prefix="") -> dict:
    """``x`` then interleaved mean/variance columns, one pair per name in ``COMPONENTS``."""
    columns = {"x": field.x}
    for k, name in enumerate(COMPONENTS):
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

    Solver aborts, each a ``FipmError``, are recorded in run.log and reported
    with exit code 3, and any other error propagates; the configuration echo
    is always written first so failures stay reproducible too.
    """
    out_dir = resolve_output_root(output_root) / cfg.output_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    # a failed rerun must not leave an earlier run's results beside its own log
    for name in RUN_ARTIFACTS:
        (out_dir / name).unlink(missing_ok=True)
    (out_dir / "config.cfg").write_text(cfg.to_text())

    start = time.perf_counter()
    grid = cfg.grid()
    ic = cfg.ic()
    try:
        solver = cfg.build_solver()
        u0 = euler.project_ic(grid.centers(), cfg.degree, ic, solver.physics)
        ghosts = euler.project_ic(grid.ghost_centers(), cfg.degree, ic, solver.physics)
        state, telemetry = solver.run(u0, ghosts)
    except FipmError as err:
        runtime = time.perf_counter() - start
        message = f"{type(err).__name__}: {err}"
        (out_dir / "run.log").write_text(
            _log_lines("failed", cfg, runtime, [f"error: {message}"])
        )
        return RunArtifacts(out_dir, 3, None, message, runtime, 0)
    runtime = time.perf_counter() - start

    x = grid.centers()
    moments = state.moments
    snapshot = {"x": x}
    for k in range(moments.shape[2]):
        for i in range(moments.shape[1]):
            snapshot[f"u{k}_mom{i}"] = moments[:, i, k]
    _write_table(out_dir / "snapshot.csv", snapshot)
    steps = {f.name: [getattr(d, f.name) for d in telemetry] for f in fields(StepDiagnostics)}
    _write_table(out_dir / "telemetry.csv", steps)

    numeric = stats_from_moments(x, moments)
    ref_mean, ref_var = euler.reference_statistics(x, state.t, ic, solver.physics)
    _write_table(out_dir / "stats.csv", _stat_columns(numeric))
    _write_table(out_dir / "reference.csv", _stat_columns(StatField(x, ref_mean, ref_var)))
    errors = StatField(x, numeric.mean - ref_mean, numeric.var - ref_var)
    _write_table(out_dir / "errors.csv", _stat_columns(errors, prefix="err_"))

    d_mean, d_var = delta_metrics(errors, cfg.delta_region())
    summary = {"deltaE": d_mean, "deltaVar": d_var, **error_norms(errors)}
    _write_table(out_dir / "summary.csv", {name: [value] for name, value in summary.items()})
    (out_dir / "plot.py").write_text(PLOT_SCRIPT)
    write_seconds = time.perf_counter() - start - runtime
    newton = sum(d.total_newton_iters for d in telemetry)
    (out_dir / "run.log").write_text(
        _log_lines(
            "ok",
            cfg,
            runtime,
            [
                f"steps: {state.step}",
                f"newton_cell_iterations: {newton}",
                f"newton_cell_iters_per_s: {newton / runtime:.1f}",
                f"t_final: {float(state.t)!r}",
                f"deltaE: {summary['deltaE']!r}",
                f"deltaVar: {summary['deltaVar']!r}",
                f"write_seconds: {write_seconds:.3f}",
            ],
        )
    )
    return RunArtifacts(out_dir, 0, summary, None, runtime, state.step)


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
    table_path: Path
    rows: list[SweepRow]


def sweep(cfg: ExperimentConfig, key: str, values, output_root=None) -> SweepResult:
    """Run the configuration once per value of one numeric key.

    The sweep's own directory, ``<output_dir>/sweep-<key>``, holds sweep.csv, a
    config.cfg echo of the base configuration and one ``<key>-<value>`` run per
    value; a rerun rewrites the first two and leaves an earlier sweep's other
    runs in place.  Failures (bad value, solver abort) are NaN rows and the
    sweep continues.  Each value is converted once, before any run; values that
    convert to one number, such as ``1e-3`` and ``0.001``, would run one
    configuration twice, so they are rejected.
    """
    texts = [str(raw).strip() for raw in values]
    values = sweep_values(key, texts)
    sweep_dir = f"{cfg.output_dir}/sweep-{key}"
    out_dir = resolve_output_root(output_root) / sweep_dir
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "config.cfg").write_text(cfg.to_text())

    nan = float("nan")
    rows: list[SweepRow] = []
    for raw, value in zip(texts, values):
        started = time.perf_counter()
        try:
            if isinstance(value, ConfigError):
                raise value
            sub_cfg = replace(
                cfg, **{key: value, "output_dir": f"{sweep_dir}/{key}-{raw}"}
            )
            artifacts = run_experiment(sub_cfg, output_root)
            summary, runtime, error = artifacts.summary or {}, artifacts.runtime, artifacts.error
        except ConfigError as err:
            summary, runtime, error = {}, time.perf_counter() - started, str(err)
        rows.append(
            SweepRow(raw, summary.get("deltaE", nan), summary.get("deltaVar", nan), runtime, error)
        )

    result = SweepResult(table_path=out_dir / "sweep.csv", rows=rows)
    columns = {name: [getattr(r, name) for r in rows] for name in ("value", "deltaE", "deltaVar")}
    _write_table(result.table_path, columns)
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
    # a rerun over other strengths must not leave an earlier run's rasters behind;
    # any other file in the directory is not the scan's to remove
    for path in out_dir.glob("*.csv"):
        if path.name == "scan-summary.csv" or SCAN_RASTER.fullmatch(path.name):
            path.unlink()
    (out_dir / "config.cfg").write_text(cfg.to_text())

    rows, scans = [], {}
    for tag, spec in cfg.filter_specs():
        scan = filter_image_scan(spec, resolution=cfg.resolution)
        scans[out_dir / f"{tag}-{spec.strength!r}.csv"] = scan
        rows.append((spec.kind.value, spec.strength, scan.n_inside, scan.n_escaped))
    if scans:
        (first, scan), *later = scans.items()
        _write_table(first, {f.name: getattr(scan, f.name) for f in fields(ScanResult)})
        # every scan holds the same u1, u2 and inside_before; only inside_after, last, differs
        _write_flag_copies(first, {path: scan.inside_after for path, scan in later})

    header = ("filter", "strength", "n_inside", "n_escaped")
    summary = {name: [row[i] for row in rows] for i, name in enumerate(header)}
    _write_table(out_dir / "scan-summary.csv", summary)
    return ScanArtifacts(out_dir=out_dir, rows=rows)
