"""The README's library example runs as written, and the code names it gives exist, so
the documented API cannot drift."""

import importlib
import re
from pathlib import Path

import numpy as np
import pytest

README = Path(__file__).resolve().parent.parent / "README.md"
SRC = README.parent / "src" / "fipm"
#: the suffixes of the file names that the README writes as ``module.suffix``
FILE_SUFFIXES = {"cfg", "csv", "json", "log", "md", "png", "py"}


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


def backticked() -> list[str]:
    return re.findall(r"`([^`\n]+)`", README.read_text())


def test_module_attributes_named_in_the_readme_resolve():
    modules = "|".join(path.stem for path in SRC.glob("*.py"))
    named = {
        (module, attr)
        for span in backticked()
        for module, attr in re.findall(rf"\b({modules})\.(\w+)", span)
        if attr not in FILE_SUFFIXES
    }
    assert named, "the README names no module attribute"
    missing = sorted(
        f"{module}.{attr}"
        for module, attr in named
        if not hasattr(importlib.import_module(f"fipm.{module}"), attr)
    )
    assert not missing, f"README names what fipm does not have: {missing}"


def test_private_names_in_the_readme_are_defined_in_fipm():
    source = "\n".join(path.read_text() for path in SRC.glob("*.py"))
    named = {name for span in backticked() for name in re.findall(r"\b_[A-Za-z]\w*", span)}
    assert named, "the README names no private name"
    missing = sorted(
        name
        for name in named
        if not re.search(rf"^\s*(?:(?:def|class) {name}\b|(?:self\.)?{name}\s*[:=])", source, re.M)
    )
    assert not missing, f"README names what src/fipm does not define: {missing}"


def test_module_map_has_one_row_per_module():
    section = README.read_text().split("Module map (`src/fipm/`):", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+\.py)`", section, re.M)
    modules = sorted(path.name for path in SRC.glob("*.py") if path.name != "__init__.py")
    assert sorted(rows) == modules
