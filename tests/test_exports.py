"""The package's public names resolve, so an export left behind by a deletion fails here,
the package runs on numpy alone, and gamma is read from the Euler model alone."""

import inspect
import os
import subprocess
import sys
from pathlib import Path

import fipm
from fipm import euler, experiment, solver

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


def public_signatures(module):
    """(name, signature) of each public function and class defined in ``module``, and of
    each public method and ``__init__`` of those classes."""
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, inspect.signature(obj)
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if inspect.isfunction(member) and (attr == "__init__" or not attr.startswith("_")):
                    yield f"{name}.{attr}", inspect.signature(member)


def test_gamma_is_a_parameter_of_the_euler_model_alone():
    """Every other callable takes the model, which checks gamma; a dataclass
    ``__init__`` counts, so a field named gamma fails too."""
    names = [
        f"{module.__name__}.{name}"
        for module in (euler, solver, experiment)
        for name, signature in public_signatures(module)
        if "gamma" in signature.parameters
    ]
    assert names == ["fipm.euler.EulerEntropy.__init__"]
