"""Tests of the benchmark's span arithmetic and patching.

Run from the repository root: ``python3 -m pytest bench/test_spans.py``.
"""

import types

import pytest

from spans import Tracer, self_times


def test_self_time_on_hand_built_tree():
    # root [0, 10] has children a [1, 4] and b [5, 9]; a has child c [2, 3].
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("c", 2.0, 3.0, 1),
        ("b", 5.0, 9.0, 0),
        ("other_root", 20.0, 21.5, -1),
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0, 1.5])
    # Self times of a tree add up to its root's duration.
    assert sum(self_times(spans)[:4]) == pytest.approx(10.0)


def test_overlapping_and_overhanging_children_are_covered_once():
    spans = [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 6.0, 0),
        ("b", 4.0, 8.0, 0),      # overlaps a on [4, 6]
        ("c", 9.0, 12.0, 0),     # runs past the root's end
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 7.0 - 1.0)


def test_patch_records_nested_spans_counts_and_restores():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    module = types.SimpleNamespace()
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2
    original_inner = module.inner

    tracer.patch(module, "inner", "m.inner",
                 count=lambda args, kwargs, result: tracer.add("inner.sum", result))
    tracer.patch(module, "outer", "m.outer")
    assert module.outer(3) == 8
    assert [(name, parent) for name, _, _, parent in tracer.spans] == [
        ("m.outer", -1), ("m.inner", 0)]
    assert tracer.counts["inner.sum"] == 4

    tracer.restore()
    assert module.inner is original_inner
    module.outer(3)
    assert len(tracer.spans) == 2


def test_span_closes_when_the_call_raises():
    tracer = Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.call("boom", boom)
    name, start, end, parent = tracer.spans[0]
    assert name == "boom" and end >= start and parent == -1
    tracer.call("after", lambda: None)
    assert tracer.spans[1][3] == -1
