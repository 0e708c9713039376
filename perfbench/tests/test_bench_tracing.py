import numpy as np
import pytest

from perfbench.tracing import NullTracer, Tracer, self_times


def test_self_time_subtracts_direct_children():
    # parent [0, 100) with children [10, 30) and [50, 60); grandchild [12, 20)
    start = [0, 10, 12, 50]
    end = [100, 30, 20, 60]
    parent = [-1, 0, 1, 0]
    assert self_times(start, end, parent).tolist() == [70, 12, 8, 10]


def test_self_time_merges_overlapping_children_and_clips_to_parent():
    # children [10, 40) and [30, 50) overlap; [90, 120) sticks out of [0, 100)
    start = [0, 10, 30, 90]
    end = [100, 40, 50, 120]
    parent = [-1, 0, 0, 0]
    assert self_times(start, end, parent)[0] == 100 - 40 - 10


def test_self_time_of_leaves_is_their_duration():
    assert self_times([5, 7], [9, 8], [-1, -1]).tolist() == [4, 1]


def test_tracer_records_nesting_ops_and_raising_calls():
    tr = Tracer()
    tr.op = 3

    def outer():
        return tr.call("inner", lambda x: x + 1, 1)

    assert tr.call("outer", outer) == 2
    with pytest.raises(ZeroDivisionError):
        tr.call("bad", lambda: 1 / 0)
    spans = tr.export()
    names = [spans["names"][i] for i in spans["name"]]
    assert names == ["outer", "inner", "bad"]
    assert spans["parent"].tolist() == [-1, 0, -1]
    assert spans["op"].tolist() == [3, 3, 3]
    assert np.all(spans["end"] >= spans["start"])
    assert self_times(spans["start"], spans["end"], spans["parent"]).min() >= 0


def test_null_tracer_passes_through_and_does_not_wrap():
    fn = lambda x: x * 2  # noqa: E731
    null = NullTracer()
    assert null.call("f", fn, 4) == 8
    assert null.wrap("f", fn) is fn
