"""Self and busy time of benchmark spans (perfbench/spans.py)."""

import types

import pytest

from spans import Tracer, layer_totals, self_times


def test_self_time_subtracts_nested_and_back_to_back_children():
    spans = [
        ["root", 0.0, 10.0, -1, None],
        ["a", 1.0, 4.0, 0, {"n": 2}],
        ["g", 2.0, 3.0, 1, None],  # grandchild: covered by a, not subtracted from root twice
        ["b", 4.0, 7.0, 0, None],  # starts where a ends
        ["a", 7.0, 7.5, 0, {"n": 3}],
    ]
    assert self_times(spans) == pytest.approx([3.5, 2.0, 1.0, 3.0, 0.5])
    totals = layer_totals(spans)
    assert totals["a"] == pytest.approx({"calls": 2, "busy_s": 3.5, "self_s": 2.5, "n": 5})
    assert totals["root"]["busy_s"] == 10.0
    assert sum(t["self_s"] for t in totals.values()) == pytest.approx(10.0)


def test_overlapping_children_are_counted_once():
    spans = [["root", 0.0, 4.0, -1, None], ["x", 1.0, 3.0, 0, None], ["y", 2.0, 5.0, 0, None]]
    assert self_times(spans)[0] == pytest.approx(1.0)


def test_tracer_records_parents_and_counts():
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * module.inner(x)
    tracer = Tracer()
    tracer.wrap(module, "inner", "m.inner", counter=lambda args, result: {"seen": args[0]})
    tracer.wrap(module, "outer", "m.outer")
    assert module.outer(2) == 9
    names = [(span[0], span[3], span[4]) for span in tracer.spans]
    assert names == [("m.outer", -1, None), ("m.inner", 0, {"seen": 2}), ("m.inner", 0, {"seen": 2})]
    outer_self, *_ = self_times(tracer.spans)
    assert 0.0 <= outer_self <= tracer.spans[0][2] - tracer.spans[0][1]
