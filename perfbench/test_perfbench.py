"""Tests of the benchmark's own logic; run with `python3 -m pytest perfbench`."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from measure import (classify_path, fastest_chunk, highest_supported_percentile,  # noqa: E402
                     samples_beyond)
from tracing import Tracer, op_layer_self, self_times  # noqa: E402


@pytest.mark.parametrize("n, expected", [
    (5, None),        # not even the median has ten samples above it
    (19, None),
    (20, 50.0),
    (99, 50.0),
    (100, 90.0),
    (999, 90.0),      # p99 would leave 9 beyond
    (1000, 99.0),
    (9999, 99.0),
    (10000, 99.9),
])
def test_highest_supported_percentile(n, expected):
    assert highest_supported_percentile(n) == expected
    if expected is not None:
        assert samples_beyond(n, expected) >= 10


def test_percentile_support_matches_numpy():
    # With n = 1000 samples 1..1000, exactly ten lie above numpy's p99.
    x = np.arange(1, 1001, dtype=float)
    p = highest_supported_percentile(x.size)
    assert np.sum(x > np.percentile(x, p)) == samples_beyond(x.size, p) == 10


def test_fastest_chunk():
    slow, fast = [2.0] * 100, [1.0] * 60 + [5.0] * 40
    assert fastest_chunk(slow + fast + slow, 100, 50) == 1.0
    assert fastest_chunk(slow + fast, 100, 99) == pytest.approx(2.0)
    assert fastest_chunk([3.0, 1.5, 2.0], 1, 99) == 1.5
    assert fastest_chunk([3.0, 1.0, 2.0], 10, 50) == 2.0     # one partial chunk: all values
    assert fastest_chunk([1.0] * 10 + [9.0], 10, 50) == 1.0  # trailing partial chunk dropped


@pytest.mark.parametrize("kwargs, reason", [
    (dict(masses=[1.0, 0.5, 0.1], estimates=[0.0, 0.1, 0.2]), None),
    (dict(masses=[1.0, -0.5, 0.1], estimates=[0.0, 0.1, 0.2]), "mass <= 0"),
    (dict(masses=[1.0, 0.0], estimates=[0.0, 0.1]), "mass <= 0"),
    (dict(masses=[1.0, np.inf], estimates=[0.0, 0.1]), "mass non-finite"),
    (dict(masses=[1.0, np.nan], estimates=[0.0, 0.1]), "mass non-finite"),
    (dict(masses=[1.0, 2.0], estimates=[0.0, np.nan]), "estimate non-finite"),
    (dict(estimates=[0.0, 1.0]), None),
    (dict(error=FloatingPointError("x")), "raised FloatingPointError"),
    (dict(masses=[1.0], error=ValueError("x")), "raised ValueError"),
])
def test_classify_path(kwargs, reason):
    assert classify_path(**kwargs) == reason


def test_operations_and_paths_are_counted_apart():
    sys.path.insert(0, str(HERE.parent / "src"))
    from workloads import Outcome

    out = Outcome(op_name="bench.round")
    out.record(0.2, traced=False)
    out.record([0.1, 0.3], traced=True)
    out.count_paths([None, "mass <= 0", "mass <= 0"])
    # Paths that lose mass do not fail the operation that scored them.
    assert (out.attempted, out.failed) == (3, 0)
    assert (out.paths, out.failed_paths) == (3, 2)
    assert out.failure_reasons == {"mass <= 0": 2}
    assert all(passed for _, passed, _ in out.checks)
    out.fail("x.repeat", "round 4 raised FloatingPointError", recorded=False)
    out.fail("x.repeat", "round 5: wrong output")
    assert (out.attempted, out.failed) == (4, 2)
    assert [passed for _, passed, _ in out.checks] == [False, False]


class FakeClock:
    def __init__(self):
        self.t = 0.0

    def __call__(self):
        return self.t


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = Tracer(clock)

    def at(t, action, *args):
        clock.t = t
        return action(*args)

    root = at(0.0, tr.open, "bench.window", True)
    a = at(1.0, tr.open, "runtime.step_matrix")
    b = at(2.0, tr.open, "multiindex.enumerate_truncated")
    at(5.0, tr.close, b)
    at(7.0, tr.close, a)
    c = at(8.0, tr.open, "runtime.advance")
    at(9.0, tr.close, c)
    at(10.0, tr.close, root)
    # root 10 s minus children 6 s and 1 s; step_matrix 6 s minus its 3 s child
    assert self_times(tr.spans) == [3.0, 3.0, 3.0, 1.0]
    ops, per_layer, total = op_layer_self(tr.spans, "bench.window")
    assert (ops, total) == (1, 10.0)
    assert per_layer == {"bench": 3.0, "runtime": 4.0, "multiindex": 3.0}
    assert sum(per_layer.values()) == total
    # children inherit the root's trace id
    assert {s[4] for s in tr.spans} == {tr.spans[root][4]}


def test_new_trace_per_call_and_wrap():
    tr = Tracer()
    tr.new_trace_per_call("runtime.run_filter")
    traced = tr.wrap(lambda x: x + 1, "runtime.run_filter")
    with tr.span("bench.round", new_trace=True):
        assert traced(1) == 2
        assert traced(2) == 3
    traces = [s[4] for s in tr.spans]
    assert len(set(traces)) == 3
    assert [s[3] for s in tr.spans] == [-1, 0, 0]


def test_spans_closed_out_of_order_raise():
    tr = Tracer()
    a = tr.open("a")
    tr.open("b")
    with pytest.raises(RuntimeError):
        tr.close(a)


def test_metric_lists_match_benchmark_json():
    import run

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (name, unit, better) for name, unit, better, _ in run.PER_LAYER]
    assert all(m["bound"] <= 0.25 for m in spec["end_to_end"])
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
