"""The package's public names resolve, so an export left behind by a deletion fails here,
and the package runs on numpy alone."""

import os
import subprocess
import sys
from pathlib import Path

import fipm

NUMPY_ONLY_SCRIPT = """
import sys

import fipm
from fipm.config import load_config
from fipm.experiment import run_experiment

cfg = load_config(
    "sod-fipm-exp-desk",
    overrides=["n_cells=40", "t_end=0.005", "output_dir=numpy-only"],
)
assert run_experiment(cfg, sys.argv[1]).exit_code == 0
print(sorted(name for name in sys.modules if name == "scipy" or name.startswith("scipy.")))
"""


def test_star_import_binds_every_exported_name():
    namespace = {}
    exec("from fipm import *", namespace)  # raises AttributeError on a stale name
    assert set(fipm.__all__) <= namespace.keys()


def test_import_and_run_load_no_scipy(tmp_path):
    # a fresh interpreter, so modules the test suite loads cannot hide or fake an import
    src = str(Path(fipm.__file__).resolve().parent.parent)
    proc = subprocess.run(
        [sys.executable, "-c", NUMPY_ONLY_SCRIPT, str(tmp_path)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
