"""The four shipped desk presets, run end to end, and their stored outputs.

    PYTHONPATH=src python tests/desk_presets.py

rewrites ``desk_expected/``: ``expected.json`` holds each preset's Newton
cell-iterations and its summary.csv row, under ``"sweep"`` the columns of
the sweep.csv that SWEEP writes, and under ``"scan"`` the SHA-256 of each
raster that the SCAN preset writes; ``<preset>-stats.csv`` and
``<preset>-reference.csv`` hold the mean and variance columns of its stats.csv and
reference.csv, all written with STORED_DIGITS significant digits.  Regenerate them only in a change that is meant to move these outputs,
and say so where the change is described.
"""

from __future__ import annotations

import csv
import hashlib
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fipm.config import load_config, parse_scan_config, read_config_text
from fipm.experiment import COMPONENTS, SCAN_RASTER, run_experiment, scan_figure1, sweep
from fipm.stats import StatField

PRESETS = ("sod-ipm-desk", "sod-fipm-fp-desk", "sod-fipm-exp-desk", "sod-highdensity-desk")
EXPECTED = Path(__file__).resolve().parent / "desk_expected"
#: the per-cell tables pinned by their mean and variance columns, each a DeskRun field
TABLES = ("stats", "reference")
#: a stored value is off by at most 5e-13 of its own size, far inside the check's 1e-9
STORED_DIGITS = 12
#: the filter-strength study at two strengths: preset, swept key and values
SWEEP = ("sod-fipm-exp-desk", "filter_strength", ("1", "5"))
#: the realizability scan preset whose rasters are pinned byte for byte
SCAN = "figure1-scan"


@dataclass(frozen=True)
class DeskRun:
    """What one preset's artifact directory says."""

    newton_cell_iterations: int
    summary: dict[str, float]
    #: stats.csv and reference.csv by column name, x first
    stats: dict[str, np.ndarray]
    reference: dict[str, np.ndarray]
    #: telemetry.csv's conservation_residual column; not stored
    conservation_residual: np.ndarray | None = None

    def stat_field(self) -> StatField:
        mean = np.stack([self.stats[f"mean_{c}"] for c in COMPONENTS], axis=-1)
        var = np.stack([self.stats[f"var_{c}"] for c in COMPONENTS], axis=-1)
        return StatField(x=self.stats["x"], mean=mean, var=var)


def read_columns(path) -> dict[str, np.ndarray]:
    with open(path, newline="") as handle:
        header, *rows = csv.reader(handle)
    values = np.array(rows, dtype=float).reshape(len(rows), len(header))
    return {name: values[:, k] for k, name in enumerate(header)}


def run_preset(name, root) -> DeskRun:
    """Run one preset under ``root`` with run_experiment and read back its artifacts."""
    artifacts = run_experiment(load_config(name), output_root=root)
    if artifacts.exit_code != 0:
        raise RuntimeError(f"{name} exited {artifacts.exit_code}: {artifacts.error}")
    log = (artifacts.out_dir / "run.log").read_text().splitlines()
    (newton,) = [int(line.split(":")[1]) for line in log if line.startswith("newton_cell_iterations:")]
    summary = {k: float(v[0]) for k, v in read_columns(artifacts.out_dir / "summary.csv").items()}
    tables = (read_columns(artifacts.out_dir / f"{table}.csv") for table in TABLES)
    residual = read_columns(artifacts.out_dir / "telemetry.csv")["conservation_residual"]
    return DeskRun(newton, summary, *tables, residual)


def run_sweep(root) -> dict[str, np.ndarray]:
    """Run SWEEP under ``root`` with experiment.sweep and read back its sweep.csv columns."""
    preset, key, values = SWEEP
    return read_columns(sweep(load_config(preset), key, values, root).table_path)


def stored_sweep() -> dict[str, list[float]]:
    return json.loads((EXPECTED / "expected.json").read_text())["sweep"]


def raster_digests(out_dir) -> dict[str, str]:
    """SHA-256 of each raster in a scan's output directory, by file name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(Path(out_dir).iterdir())
        if SCAN_RASTER.fullmatch(path.name)
    }


def stored_scan() -> dict[str, str]:
    return json.loads((EXPECTED / "expected.json").read_text())["scan"]


def stored(name) -> DeskRun:
    """The stored outputs of one preset; its tables hold the mean and variance columns only."""
    entry = json.loads((EXPECTED / "expected.json").read_text())[name]
    tables = (read_columns(EXPECTED / f"{name}-{table}.csv") for table in TABLES)
    return DeskRun(entry["newton_cell_iterations"], entry["summary"], *tables)


def _text(value) -> str:
    return f"{value:.{STORED_DIGITS}g}"


def main():
    EXPECTED.mkdir(exist_ok=True)
    expected = {}
    with tempfile.TemporaryDirectory() as root:
        for name in PRESETS:
            run = run_preset(name, root)
            expected[name] = {
                "newton_cell_iterations": run.newton_cell_iterations,
                "summary": {k: float(_text(v)) for k, v in run.summary.items()},
            }
            for table in TABLES:
                columns = {k: v for k, v in getattr(run, table).items() if k != "x"}
                with open(EXPECTED / f"{name}-{table}.csv", "w", newline="") as handle:
                    writer = csv.writer(handle)
                    writer.writerow(columns)
                    writer.writerows([_text(v) for v in row] for row in zip(*columns.values()))
            print(f"{name}: {run.newton_cell_iterations} Newton cell-iterations")
        columns = run_sweep(root)
        expected["sweep"] = {k: [float(_text(v)) for v in col] for k, col in columns.items()}
        scan = scan_figure1(parse_scan_config(*read_config_text(SCAN)), root)
        expected["scan"] = raster_digests(scan.out_dir)
    (EXPECTED / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
