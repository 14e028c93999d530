"""Shared fixtures and reporting.

Acceptance tests record one line per criterion; the terminal-summary hook
prints them after the run so the verdicts are visible regardless of pytest's
per-test output capturing.  The header names the fipm package under test, so
every run shows which tree it tested, and a ``PYTHONPATH`` that names another
fipm tree stops pytest before any test runs.
"""

import functools
import os
from pathlib import Path

import pytest
from desk_presets import run_preset

import fipm

_criterion_lines: list[tuple[int, str]] = []


def record_criterion(number: int, title: str, passed: bool):
    verdict = "PASS" if passed else "FAIL"
    _criterion_lines.append((number, f"criterion {number}: {title}: {verdict}"))


def pytest_configure(config):
    """Refuse a ``PYTHONPATH`` entry that holds a fipm other than the one imported.

    ``pythonpath = ["src"]`` puts this checkout's ``src`` ahead of
    ``PYTHONPATH``, so a run pointed at another tree would test this one.
    """
    imported = Path(fipm.__file__).resolve()
    for entry in filter(None, os.environ.get("PYTHONPATH", "").split(os.pathsep)):
        package = Path(entry, "fipm", "__init__.py").resolve()
        if package.is_file() and package != imported:
            raise pytest.UsageError(
                f"PYTHONPATH entry {entry!r} holds {package}, but the tests import {imported}"
            )


def pytest_report_header(config):
    return f"fipm under test: {fipm.__file__}"


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _criterion_lines:
        return
    terminalreporter.section("acceptance criteria")
    for _, line in sorted(_criterion_lines):
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def desk_run(tmp_path_factory):
    """``desk_run(preset)``: a desk preset's DeskRun, run once per session on first use."""
    return functools.cache(lambda name: run_preset(name, tmp_path_factory.mktemp(name)))
