"""The suite's own guard: pytest tests the fipm tree that PYTHONPATH names, or none."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def test_a_pythonpath_naming_another_fipm_stops_pytest(tmp_path):
    other = tmp_path / "other"
    (other / "fipm").mkdir(parents=True)
    (other / "fipm" / "__init__.py").write_text("")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(other), str(ROOT / "src")])}
    command = ["-m", "pytest", "-q", "--co", "-p", "no:cacheprovider", "tests/test_basis.py"]
    done = subprocess.run(
        [sys.executable, *command],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == pytest.ExitCode.USAGE_ERROR, done.stdout + done.stderr
    assert str(other / "fipm" / "__init__.py") in done.stderr
    assert str(ROOT / "src" / "fipm" / "__init__.py") in done.stderr
