"""The README's library example runs as written, so the documented API cannot drift."""

import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"


def library_example() -> str:
    section = README.read_text().split("\n## Library\n", 1)[1]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match is not None, "the Library section has no python block"
    return match.group(1)


def test_library_example_runs_verbatim():
    namespace = {}
    exec(compile(library_example(), str(README), "exec"), namespace)
    state, telemetry, stats = namespace["state"], namespace["telemetry"], namespace["stats"]
    assert state.step == len(telemetry) > 0
    assert state.t == pytest.approx(namespace["grid"].t_end, rel=1e-12)
    assert np.all(np.isfinite(stats.mean)) and np.all(stats.var >= 0)
