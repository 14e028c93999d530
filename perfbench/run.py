"""fipm benchmark: fixed workloads, end-to-end metrics and a traced per-layer breakdown.

    python3 perfbench/run.py                    # every workload, untraced then traced
    python3 perfbench/run.py --workload desk-ipm --seed 3 --seconds 30 --trace 0

Each workload run is a fresh ``perfbench/child.py`` process, and only one
runs at a time.  ``--trace 0`` reports the end-to-end metrics of untraced
runs; ``--trace 1`` reports the per-layer metrics of traced runs, interleaved
with untraced runs that give the tracing overhead.  Inputs are the shipped
presets; ``--seed`` only shuffles the order in which runs interleave.  Every
run's outputs are checked against ``expected.json``.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  README.md beside this file lists the metrics and workloads.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT_ROOT = ROOT / ".perfbench-runs"

#: output check: |stats.csv value - stored value| <= STATS_RTOL * max |stored column|
STATS_RTOL = 1e-6
#: no run starts once its workload has used this many seconds of one invocation,
#: and a run is killed at CHILD_DEADLINE_S, so an invocation ends within 180 s
DEADLINE_S = 120.0
CHILD_DEADLINE_S = 165.0
#: a run's threads move to the next CPU this often (see rotate_cpus)
ROTATE_S = 0.05
#: rounds run even when the time budget is spent (a traced round is two runs)
MIN_ROUNDS = {False: 3, True: 2}


@dataclass(frozen=True)
class Workload:
    kind: str  # "pde" (run_experiment) or "scan" (scan_figure1)
    preset: str
    overrides: tuple[str, ...] = ()


WORKLOADS = {
    # The shipped desk preset: exact dual, small working set, and the only
    # workload on the reconstructing path; its filter call is only a copy.
    "desk-ipm": Workload("pde", "sod-ipm-desk"),
    # Publication grid and degree with the regularized dual and the dt-coupled
    # exponential filter: a 17x larger working set, no reconstruct.  t_end is
    # cut to 29 steps so that several runs fit in one measurement.  It is not
    # listed in BENCHMARK.json: its wall time follows last-level-cache
    # contention from other tenants of a shared host, and its median over 10
    # invocations spread by 0.22 of itself (quartiles), too wide for any bound.
    "pub-fipm-exp": Workload("pde", "sod-fipm-exp", ("t_end=0.0035",)),
    # The realizability raster scan: artifact writing, no closure or solver code.
    "figure1-scan": Workload("scan", "figure1-scan"),
}


class CheckFailed(Exception):
    """A run's outputs differ from the stored ones."""


@dataclass
class Sample:
    """One run of one workload: timings, exact counts and, if traced, layer totals."""

    workload: str
    traced: bool
    ok: bool = False
    reason: str = ""
    wall_s: float = 0.0
    setup_s: float = 0.0
    peak_rss_mb: float = 0.0
    duration_s: float = 0.0
    counts: dict = field(default_factory=dict)
    layers: dict = field(default_factory=dict)


# -- output checks ----------------------------------------------------------------


def csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as handle:
        return list(csv.DictReader(handle))


def _artifact_counts(out_dir: Path) -> dict:
    """Files written, and bytes written in all but run.log, whose wall time varies."""
    files = [path for path in out_dir.rglob("*") if path.is_file()]
    return {
        "bytes_written": sum(p.stat().st_size for p in files if p.name != "run.log"),
        "files_written": len(files),
    }


def check_pde(out_dir: Path, expected: dict) -> dict:
    """Step count and stats.csv mean/var columns against the stored values."""
    telemetry = csv_rows(out_dir / "telemetry.csv")
    if len(telemetry) != expected["steps"]:
        raise CheckFailed(f"{len(telemetry)} steps, expected {expected['steps']}")
    stats = csv_rows(out_dir / "stats.csv")
    for column, want in expected["stats"].items():
        got = [float(row[column]) for row in stats]
        if len(got) != len(want):
            raise CheckFailed(f"stats.csv has {len(got)} rows, expected {len(want)}")
        worst = max(abs(g - w) for g, w in zip(got, want))
        if not worst <= STATS_RTOL * max(abs(w) for w in want):
            raise CheckFailed(f"stats.csv {column} differs from the stored values by {worst:.3e}")
    n_cells = next(
        int(line.partition("=")[2])
        for line in (out_dir / "config.cfg").read_text().splitlines()
        if line.startswith("n_cells ")
    )
    return {
        "steps": len(telemetry),
        "cell_steps": n_cells * len(telemetry),
        "newton_cell_iters": sum(int(row["total_newton_iters"]) for row in telemetry),
        **_artifact_counts(out_dir),
    }


def line_count(path: Path) -> int:
    with open(path, "rb") as handle:
        return sum(chunk.count(b"\n") for chunk in iter(lambda: handle.read(1 << 20), b""))


def check_scan(out_dir: Path, expected: dict) -> dict:
    """Exact scan-summary rows, no Fokker-Planck escapes, full rasters."""
    with open(out_dir / "scan-summary.csv", newline="") as handle:
        rows = list(csv.reader(handle))[1:]
    if rows != expected["summary"]:
        raise CheckFailed("scan-summary.csv differs from the stored rows")
    if any(row[0] == "fokker-planck" and row[3] != "0" for row in rows):
        raise CheckFailed("the Fokker-Planck filter pushed raster points outside")
    rasters = [p for p in out_dir.glob("*.csv") if p.name != "scan-summary.csv"]
    if len(rasters) != len(rows):
        raise CheckFailed(f"{len(rasters)} raster files for {len(rows)} summary rows")
    points = 0
    for path in rasters:
        n = line_count(path) - 1
        if n != expected["points_per_raster"]:
            raise CheckFailed(f"{path.name} has {n} points, expected {expected['points_per_raster']}")
        points += n
    return {"points": points, **_artifact_counts(out_dir)}


def load_expected() -> dict:
    """expected.json, with the stored stats columns of each PDE workload attached."""
    expected = json.loads((HERE / "expected.json").read_text())
    for name, workload in WORKLOADS.items():
        if workload.kind == "pde":
            rows = csv_rows(HERE / "expected" / f"{name}-stats.csv")
            expected[name]["stats"] = {
                column: [float(row[column]) for row in rows] for column in rows[0] if column != "x"
            }
    return expected


# -- one run ----------------------------------------------------------------------


def rotate_cpus(pid: int, stop: threading.Event):
    """Every ROTATE_S, move each thread of process pid to the next allowed CPU.

    On a shared host each vCPU's speed drifts with its neighbours' load, and
    the vCPUs drift apart.  A single-threaded run follows the one vCPU it
    lands on, and a run with a thread on each vCPU waits for the slower one.
    Rotating the threads, each offset by its index, gives every run the mean
    speed of all vCPUs: on a 2-vCPU VM the quartile spread of single runs fell
    from 0.21 to 0.08 of the median on figure1-scan and from 0.23 to 0.11 on
    desk-ipm, with medians unchanged.
    """
    cpus = sorted(os.sched_getaffinity(0))
    turn = 0
    while len(cpus) > 1 and not stop.wait(ROTATE_S):
        try:
            tids = sorted(int(tid) for tid in os.listdir(f"/proc/{pid}/task"))
        except OSError:
            return  # the process has ended
        for index, tid in enumerate(tids):
            try:
                os.sched_setaffinity(tid, {cpus[(turn + index) % len(cpus)]})
            except OSError:
                pass  # the thread has ended
        turn += 1


def run_child(spec: dict, timeout: float) -> dict:
    """Run child.py on spec; raises CheckFailed if it fails."""
    spec["launched"] = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, cwd=ROOT,
    )
    stop = threading.Event()
    rotator = threading.Thread(target=rotate_cpus, args=(proc.pid, stop), daemon=True)
    rotator.start()
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        raise CheckFailed(f"killed after {timeout:.0f} s") from None
    finally:
        stop.set()
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
        rotator.join()
    if proc.returncode != 0:
        tail = (stderr.strip().splitlines() or ["no output"])[-1]
        raise CheckFailed(f"exit code {proc.returncode}: {tail}")
    return json.loads(stdout.splitlines()[-1])


def child_spec(name: str, traced: bool) -> dict:
    workload = WORKLOADS[name]
    return {
        "kind": workload.kind,
        "preset": workload.preset,
        "overrides": list(workload.overrides),
        "output_root": str(OUTPUT_ROOT),
        "trace": traced,
    }


def run_once(name: str, traced: bool, expected: dict, timeout: float) -> Sample:
    workload = WORKLOADS[name]
    sample = Sample(name, traced)
    shutil.rmtree(OUTPUT_ROOT, ignore_errors=True)
    started = time.monotonic()
    try:
        result = run_child(child_spec(name, traced), timeout)
        if result["exit_code"] != 0:
            raise CheckFailed(f"run ended with exit code {result['exit_code']}")
        check = check_pde if workload.kind == "pde" else check_scan
        sample.counts = check(Path(result["out_dir"]), expected)
        sample.ok = True
    except CheckFailed as err:
        sample.reason = str(err)
        return sample
    finally:
        sample.duration_s = time.monotonic() - started
        shutil.rmtree(OUTPUT_ROOT, ignore_errors=True)
    sample.wall_s = result["wall_s"]
    sample.setup_s = result["setup_s"]
    sample.peak_rss_mb = result["peak_rss_mb"]
    if traced:
        sample.layers = layer_totals(result["spans"])
        sample.counts.update(
            (f"{layer}.{key}", value)
            for layer, entry in sample.layers.items()
            for key, value in entry.items()
            if isinstance(value, int)
        )
    return sample


def flag_nondeterminism(samples: list[Sample]):
    """Fail every run whose exact counts differ from the first run that had them."""
    first: dict = {}
    for sample in samples:
        if not sample.ok:
            continue
        for key, value in sample.counts.items():
            reference = first.setdefault((sample.workload, key), value)
            if value != reference:
                sample.ok = False
                sample.reason = f"nondeterministic: {key} = {value}, first run had {reference}"


def measure(names, traced, seconds, rng, expected, order) -> list[Sample]:
    """Interleave rounds of the named workloads in seeded order within the budget.

    A round is one untraced run, or with ``traced`` one untraced and one
    traced run.  A workload stops when its next round would pass ``seconds``
    (after MIN_ROUNDS), or after a failed run.
    """
    samples: list[Sample] = []
    spent = {name: 0.0 for name in names}
    rounds: dict[str, list[float]] = {name: [] for name in names}
    active = list(names)
    while active:
        jobs = []
        for name in active:
            estimate = statistics.median(rounds[name]) if rounds[name] else 0.0
            if spent[name] + estimate > DEADLINE_S:
                continue
            if len(rounds[name]) < MIN_ROUNDS[traced] or spent[name] + estimate <= seconds:
                jobs += [(name, False), (name, True)] if traced else [(name, False)]
        if not jobs:
            break
        rng.shuffle(jobs)
        cost = {name: 0.0 for name, _ in jobs}
        for name, is_traced in jobs:
            sample = run_once(name, is_traced, expected[name], CHILD_DEADLINE_S - spent[name])
            samples.append(sample)
            order.append(name + ("+trace" if is_traced else ""))
            spent[name] += sample.duration_s
            cost[name] += sample.duration_s
            if not sample.ok:
                print(f"FAILED {name}{' (traced)' if is_traced else ''}: {sample.reason}")
        for name in cost:
            rounds[name].append(cost[name])
        active = [name for name in cost if all(s.ok for s in samples if s.workload == name)]
    flag_nondeterminism(samples)
    return samples


# -- metrics ----------------------------------------------------------------------


def end_to_end(samples: list[Sample]) -> dict:
    runs = [s for s in samples if s.ok and not s.traced]
    wall = statistics.median(s.wall_s for s in runs)
    counts = runs[0].counts
    return {
        "wall_s": wall,
        "setup_s": statistics.median(s.setup_s for s in runs),
        "items_per_s": counts.get("cell_steps", counts.get("points", 0)) / wall,
        "peak_rss_mb": statistics.median(s.peak_rss_mb for s in runs),
    }


def layer_values(sample: Sample) -> dict:
    """Flat per-layer values of one traced run; layers never called read 0."""
    values = {
        f"{layer}.{key}": value for layer, entry in sample.layers.items() for key, value in entry.items()
    }
    solve = sample.layers.get("closures.solve_batch", {})
    iters = solve.get("newton_cell_iters", 0)
    values["closures.solve_batch.iters_per_cell"] = iters / solve["cells"] if solve else 0.0
    values["closures.solve_batch.cell_iters_per_s"] = iters / solve["busy_s"] if solve else 0.0
    values["stats.busy_s"] = sum(
        entry["busy_s"] for layer, entry in sample.layers.items() if layer.startswith("stats.")
    )
    values["experiment.bytes_written"] = sample.counts["bytes_written"]
    values["experiment.files_written"] = sample.counts["files_written"]
    values["trace.wall_s"] = sample.wall_s
    return values


def per_layer(samples: list[Sample], names: list[str]) -> dict:
    traced = [layer_values(s) for s in samples if s.ok and s.traced]
    untraced = statistics.median(s.wall_s for s in samples if s.ok and not s.traced)
    values = {}
    for name in names:
        column = [v.get(name, 0) for v in traced]
        # exact counts are equal in every run (flag_nondeterminism checks them)
        values[name] = column[0] if isinstance(column[0], int) else statistics.median(column)
    values["trace.overhead_s"] = values["trace.wall_s"] - untraced
    return values


def self_time_ranking(samples: list[Sample]) -> list[tuple[str, float]]:
    traced = [s for s in samples if s.ok and s.traced]
    layers = {layer for s in traced for layer in s.layers}
    ranking = [
        (layer, statistics.median(s.layers.get(layer, {}).get("self_s", 0.0) for s in traced))
        for layer in layers
    ]
    return sorted(ranking, key=lambda item: -item[1])


# -- report -----------------------------------------------------------------------


def machine_facts(seed: int) -> dict:
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
    except (OSError, StopIteration):
        cpu = platform.processor() or platform.machine()
    facts = {"nproc": os.cpu_count(), "cpu": cpu, "seed": seed}
    try:
        facts.update(run_child({"facts": True}, CHILD_DEADLINE_S))
    except CheckFailed as err:
        facts["libraries"] = f"unavailable ({err})"
    return facts


def report(name, samples, spec, traced) -> dict:
    """Print one workload's metrics and return them by name."""
    runs = [s for s in samples if s.workload == name]
    good = [s for s in runs if s.ok]
    failed = len(runs) - len(good)
    print(f"\n{name}: {len(runs)} runs ({sum(s.traced for s in runs)} traced), "
          f"{failed} failed, fail_frac {failed / len(runs):.4g}")
    for sample in runs:
        if not sample.ok:
            print(f"  failed run: {sample.reason}")
    untraced = [s for s in good if not s.traced]
    if not untraced or (traced and len(untraced) == len(good)):
        return {}
    exact = {k: v for k, v in untraced[0].counts.items() if "." not in k}
    print("  exact counts: " + ", ".join(f"{k}={v}" for k, v in exact.items()))
    if not traced:
        values = end_to_end(runs)
        walls = sorted(s.wall_s for s in untraced)
        print(f"  untraced wall_s samples: {', '.join(f'{w:.4f}' for w in walls)}")
        metrics = spec["end_to_end"]
    else:
        values = per_layer(runs, [m["name"] for m in spec["per_layer"]])
        metrics = spec["per_layer"]
    for metric in metrics:
        value = values[metric["name"]]
        text = str(value) if isinstance(value, int) else f"{value:.6g}"
        print(f"  {metric['name']:<44} {text:>16} {metric['unit']}")
    if traced:
        print("  self time by layer (median of traced runs):")
        for layer, seconds in self_time_ranking(runs):
            print(f"    {layer:<42} {seconds:10.4f} s")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end only, 1: per-layer only (default: 0, and for "
                             "all workloads both)")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "fipm" / "__init__.py").is_file():
        print(f"no fipm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = load_expected()
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if args.trace is not None:
        phases = [bool(args.trace)]
    else:
        phases = [False, True] if args.workload == "all" else [False]

    facts = machine_facts(args.seed)
    rng = random.Random(args.seed)
    order: list[str] = []
    metrics: dict = {}
    attempted = failed = 0
    for traced in phases:
        samples = measure(names, traced, args.seconds, rng, expected, order)
        attempted += len(samples)
        failed += sum(not s.ok for s in samples)
        print(f"\n== {'traced (per-layer)' if traced else 'untraced (end-to-end)'} ==")
        for name in names:
            values = report(name, samples, spec, traced)
            if not values:
                print(f"no successful {'traced ' if traced else ''}run of {name}", file=sys.stderr)
                return 1
            prefix = f"{name}." if len(names) > 1 else ""
            metrics.update((prefix + key, value) for key, value in values.items())
    facts["run_order"] = order
    print("\nmachine: " + json.dumps(facts))
    print(json.dumps(
        {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    ))
    return 0


if __name__ == "__main__":
    sys.exit(main())
