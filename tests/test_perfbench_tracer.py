"""The traced benchmark can wrap every function it names in the current source,
and its counters read the call shapes of a real run."""

import csv
import json
import subprocess
import sys
import time
from pathlib import Path

from fipm.config import load_config

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def run_in_perfbench(script, *args):
    # child.py puts this checkout's src/ first on the path; -B writes no bytecode into perfbench/
    return subprocess.run(
        [sys.executable, "-B", "-c", script, *args],
        cwd=PERFBENCH,
        capture_output=True,
        text=True,
    )


def test_install_tracer_finds_every_wrapped_name():
    proc = run_in_perfbench("import child; child.install_tracer()")
    assert proc.returncode == 0, proc.stderr


def test_traced_run_counts_match_its_telemetry(tmp_path):
    n_cells = 40
    spec = {
        "kind": "pde",
        "preset": "sod-ipm-desk",
        "overrides": [f"n_cells={n_cells}", "t_end=0.02"],
        "output_root": str(tmp_path),
        "launched": time.monotonic(),
        "trace": True,
    }
    script = "import child, json, sys; print(json.dumps(child.main(json.loads(sys.argv[1]))))"
    proc = run_in_perfbench(script, json.dumps(spec))
    assert proc.returncode == 0, proc.stderr  # no counter raised
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["exit_code"] == 0
    with open(Path(result["out_dir"]) / "telemetry.csv", newline="") as fh:
        telemetry = list(csv.DictReader(fh))

    spans = result["spans"]
    parent_name = {i: spans[s[3]][0] if s[3] >= 0 else None for i, s in enumerate(spans)}
    solves = [(parent_name[i], s[4]) for i, s in enumerate(spans) if s[0] == "closures.solve_batch"]
    in_steps = [c for parent, c in solves if parent == "solver.step"]
    in_prepare = [c for parent, c in solves if parent == "solver.prepare"]
    assert len(in_steps) + len(in_prepare) == len(solves)
    # prepare closes the two ghosts, then the initial cells
    assert [c["cells"] for c in in_prepare] == [2, n_cells]
    assert len(in_steps) == len(telemetry) > 0
    assert all(c["cells"] == n_cells for c in in_steps)
    assert [c["newton_cell_iters"] for c in in_steps] == [
        int(row["total_newton_iters"]) for row in telemetry
    ]
    total = sum(c["newton_cell_iters"] for _, c in solves)
    assert total == sum(int(row["total_newton_iters"]) for row in telemetry) + sum(
        c["newton_cell_iters"] for c in in_prepare
    )
    assert all(c["nonconverged_cells"] == 0 for _, c in solves)

    fluxes = [s[4] for s in spans if s[0] == "solver.kinetic_flux"]
    assert len(fluxes) == len(telemetry)
    n_quad = load_config("sod-ipm-desk").n_quad  # one node pair per node and interface
    assert all(c["node_pairs"] == (n_cells + 1) * n_quad for c in fluxes)
    assert all(c["bytes_computed"] > 0 for c in fluxes)
