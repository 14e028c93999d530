"""The traced benchmark can wrap every function it names in the current source."""

import subprocess
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_install_tracer_finds_every_wrapped_name():
    # child.py puts this checkout's src/ first on the path; -B writes no bytecode into perfbench/
    script = "import child; child.install_tracer()"
    proc = subprocess.run(
        [sys.executable, "-B", "-c", script], cwd=PERFBENCH, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
