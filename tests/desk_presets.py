"""The four shipped desk presets, run end to end, and their stored outputs.

    PYTHONPATH=src python tests/desk_presets.py

rewrites ``desk_expected/``: ``expected.json`` holds each preset's Newton
cell-iterations and its summary.csv row, ``<preset>-stats.csv`` and
``<preset>-reference.csv`` the mean and variance columns of its stats.csv and
reference.csv, all written with STORED_DIGITS significant digits.  Regenerate them only in a change that is meant to move these outputs,
and say so where the change is described.
"""

from __future__ import annotations

import csv
import json
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from fipm.config import load_config
from fipm.experiment import COMPONENTS, run_experiment
from fipm.stats import StatField

PRESETS = ("sod-ipm-desk", "sod-fipm-fp-desk", "sod-fipm-exp-desk", "sod-highdensity-desk")
EXPECTED = Path(__file__).resolve().parent / "desk_expected"
#: the per-cell tables pinned by their mean and variance columns, each a DeskRun field
TABLES = ("stats", "reference")
#: a stored value is off by at most 5e-13 of its own size, far inside the check's 1e-9
STORED_DIGITS = 12


@dataclass(frozen=True)
class DeskRun:
    """What one preset's artifact directory says."""

    newton_cell_iterations: int
    summary: dict[str, float]
    #: stats.csv and reference.csv by column name, x first
    stats: dict[str, np.ndarray]
    reference: dict[str, np.ndarray]

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
    return DeskRun(newton, summary, *tables)


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
    (EXPECTED / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
