"""The four desk presets and a filter-strength sweep, run end to end, against stored outputs.

Newton cell-iterations must match exactly; every summary.csv value, every
stats.csv and reference.csv mean and variance column and every sweep.csv column
must match to RTOL of that column's largest stored magnitude.  ``desk_presets.py``
regenerates the stored values.  Every step of every preset must conserve to
criterion 8's 1e-11, read from its telemetry.csv.
"""

import numpy as np
import pytest
from desk_presets import PRESETS, TABLES, run_sweep, stored, stored_sweep

RTOL = 1e-9


def assert_columns_match(got, want):
    for name, values in want.items():
        values = np.atleast_1d(values)
        worst = np.abs(np.atleast_1d(got[name]) - values).max()
        assert worst <= RTOL * np.abs(values).max(), f"{name} differs by {worst:.3e}"


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_reproduces_its_stored_outputs(desk_run, preset):
    run, want = desk_run(preset), stored(preset)
    assert run.newton_cell_iterations == want.newton_cell_iterations
    assert list(run.summary) == list(want.summary)
    assert_columns_match(run.summary, want.summary)
    for table in TABLES:
        got_columns, want_columns = getattr(run, table), getattr(want, table)
        assert list(got_columns) == ["x", *want_columns], table
        assert_columns_match(got_columns, want_columns)


@pytest.mark.parametrize("preset", PRESETS)
def test_preset_conserves_every_step(desk_run, preset):
    """Every step's telemetry.csv conservation residual is below criterion 8's bound."""
    residual = desk_run(preset).conservation_residual
    assert residual.size > 0
    assert residual.max() < 1e-11


def test_sweep_reproduces_its_stored_table(tmp_path):
    got, want = run_sweep(tmp_path), stored_sweep()
    assert list(got) == list(want)
    assert_columns_match(got, want)
