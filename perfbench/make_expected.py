"""Store the outputs that every benchmark run is checked against.

    python3 perfbench/make_expected.py

Runs each workload once and writes ``expected.json`` (the step count of the
PDE workloads; the scan-summary.csv rows and raster size of figure1-scan) and
``expected/<workload>-stats.csv`` (the final stats.csv rounded to 9
significant digits, well inside the check's relative tolerance of 1e-6).
Regenerate only for a change that is meant to alter these outputs.
"""

from __future__ import annotations

import csv
import json
import shutil
from pathlib import Path

import run


def main():
    expected = {}
    (run.HERE / "expected").mkdir(exist_ok=True)
    for name, workload in run.WORKLOADS.items():
        shutil.rmtree(run.OUTPUT_ROOT, ignore_errors=True)
        out_dir = Path(run.run_child(run.child_spec(name, False), run.CHILD_DEADLINE_S)["out_dir"])
        if workload.kind == "pde":
            expected[name] = {"steps": len(run.csv_rows(out_dir / "telemetry.csv"))}
            with open(out_dir / "stats.csv", newline="") as handle:
                header, *rows = csv.reader(handle)
            with open(run.HERE / "expected" / f"{name}-stats.csv", "w", newline="") as handle:
                writer = csv.writer(handle)
                writer.writerow(header)
                writer.writerows([f"{float(v):.9g}" for v in row] for row in rows)
        else:
            with open(out_dir / "scan-summary.csv", newline="") as handle:
                summary = list(csv.reader(handle))[1:]
            raster = out_dir / f"exp-{summary[0][1]}.csv"
            expected[name] = {"summary": summary, "points_per_raster": run.line_count(raster) - 1}
    shutil.rmtree(run.OUTPUT_ROOT, ignore_errors=True)
    (run.HERE / "expected.json").write_text(json.dumps(expected, indent=2) + "\n")


if __name__ == "__main__":
    main()
