"""One benchmark run in a fresh process: import fipm, resolve a preset, run it once.

    python3 perfbench/child.py '<json spec>'

The spec gives ``kind`` ("pde" or "scan"), ``preset``, ``overrides``,
``output_root``, ``launched`` (the parent's ``time.monotonic()`` just before
it started this process) and ``trace``.  A spec of ``{"facts": true}`` only
imports fipm and reports the library versions and BLAS threads.  The result is
one JSON line on stdout.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from spans import Tracer  # noqa: E402  (perfbench/ is this script's own directory)


def _solve_counts(args, result):
    _, info = result
    return {
        "cells": int(args[1].shape[0]),
        "newton_cell_iters": info.total_iterations,
        "nonconverged_cells": int(info.converged.size - info.converged.sum()),
    }


def _flux_counts(args, result):
    states_l, states_r, phi_w = args[:3]
    return {
        "node_pairs": states_l.size // states_l.shape[-1],
        "bytes_computed": states_l.nbytes + states_r.nbytes + phi_w.nbytes + result.nbytes,
    }


def _scan_counts(args, result):
    return {"points": int(result.u1.size)}


def install_tracer() -> Tracer:
    """Wrap the public functions of each fipm module where their callers look them up."""
    from fipm import closures, config, euler, experiment, solver

    tracer = Tracer()
    wrap = tracer.wrap
    wrap(config, "load_config", "config.load_config")
    wrap(config.ExperimentConfig, "build_solver", "config.build_solver")
    wrap(experiment, "run_experiment", "experiment.run_experiment")
    wrap(experiment, "scan_figure1", "experiment.scan_figure1")
    wrap(experiment, "filter_image_scan", "realizability.filter_image_scan", _scan_counts)
    for name in ("stats_from_moments", "delta_metrics", "error_norms"):
        wrap(experiment, name, f"stats.{name}")
    wrap(euler, "reference_statistics", "euler.reference_statistics")
    wrap(solver.MomentSolver, "run", "solver.run")
    wrap(solver.MomentSolver, "prepare", "solver.prepare")
    wrap(solver.MomentSolver, "step", "solver.step")
    wrap(solver, "apply_filter", "filters.apply_filter")
    wrap(solver, "kinetic_flux", "solver.kinetic_flux", _flux_counts)
    wrap(closures.ClosureSolver, "solve_batch", "closures.solve_batch", _solve_counts)
    wrap(closures.ClosureSolver, "node_states", "closures.node_states")
    wrap(closures.ClosureSolver, "reconstruct", "closures.reconstruct")
    return tracer


def machine_facts() -> dict:
    """Library versions, BLAS build and BLAS thread count of this interpreter."""
    import ctypes

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as maps:
        libs = {line.split()[-1] for line in maps if "openblas" in line.lower()}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                threads = getter()
                break
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def main(spec: dict) -> dict:
    import fipm  # noqa: F401  (the import is part of the measured set-up)
    from fipm import config, experiment

    if spec.get("facts"):
        return machine_facts()
    tracer = install_tracer() if spec["trace"] else None
    if spec["kind"] == "pde":
        cfg = config.load_config(spec["preset"], overrides=spec["overrides"])
        run = experiment.run_experiment
    else:
        text, source = config.read_config_text(spec["preset"])
        cfg = config.parse_scan_config(text, source=source)
        run = experiment.scan_figure1
    ready = time.monotonic()
    start = time.perf_counter()
    artifacts = run(cfg, spec["output_root"])
    wall = time.perf_counter() - start
    result = {
        "setup_s": ready - spec["launched"],
        "wall_s": wall,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "exit_code": getattr(artifacts, "exit_code", 0),
        "out_dir": str(artifacts.out_dir),
    }
    if tracer is not None:
        result["spans"] = tracer.spans
    return result


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
