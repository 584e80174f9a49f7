"""Tests of the benchmark's own statistics and span wrappers.

Run from the repository root::

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import threading
import types
from pathlib import Path

import pytest

from perfbench.harness import END_TO_END, PROBE_HALF_WINDOW, _Phase, host_factors
from perfbench.layers import PER_LAYER
from perfbench.spans import Patches, Recorder, Span, percentile, self_times, summarize

ROOT = Path(__file__).resolve().parents[2]


# -- percentiles ---------------------------------------------------------------

@pytest.mark.parametrize(
    "values, q, expected",
    [
        (range(1, 11), 50, (5, 10, 5)),
        (range(1, 11), 90, (9, 10, 1)),
        (range(1, 101), 90, (90, 100, 10)),
        (range(1, 12), 90, (10, 11, 1)),
        (range(1, 12), 50, (6, 11, 5)),
        ([7.0], 90, (7.0, 1, 0)),
        (range(1, 11), 100, (10, 10, 0)),
    ],
)
def test_percentile_is_nearest_rank_with_counts(values, q, expected):
    assert percentile(list(values), q) == expected


def test_percentile_ignores_input_order():
    assert percentile([3, 1, 2, 5, 4], 50) == (3, 5, 2)


@pytest.mark.parametrize("values, q", [([], 50), ([1.0], 0), ([1.0], 101)])
def test_percentile_rejects_bad_requests(values, q):
    with pytest.raises(ValueError):
        percentile(values, q)


# -- self time -------------------------------------------------------------------

def _span(span_id, parent, start, end, name="x"):
    return Span(name, span_id, parent, start, end)


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    spans = [
        _span(0, None, 0.0, 10.0),
        _span(1, 0, 1.0, 3.0),
        _span(2, 0, 2.0, 5.0),   # overlaps span 1: [1, 5] counted once
        _span(3, 0, 8.0, 12.0),  # runs past the parent: only [8, 10] counts
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 2.0)


def test_self_time_counts_only_direct_children():
    spans = [
        _span(0, None, 0.0, 10.0, "outer"),
        _span(1, 0, 2.0, 8.0, "middle"),
        _span(2, 1, 3.0, 7.0, "inner"),
    ]
    selfs = self_times(spans)
    assert selfs == pytest.approx({0: 4.0, 1: 2.0, 2: 4.0})
    table = summarize(spans)
    assert table["outer"] == pytest.approx({"calls": 1, "total": 10.0, "self": 4.0})
    assert table["inner"]["self"] == pytest.approx(4.0)


def test_recorder_nests_wrapped_calls_per_thread():
    recorder = Recorder()
    module = types.ModuleType("fake_layer")
    module.inner = lambda x: x + 1
    module.outer = lambda x: module.inner(x) * 2

    patches = Patches(recorder).add(module, "inner", "inner").add(module, "outer", "outer")
    patches.install()
    try:
        assert module.outer(1) == 4
        worker = threading.Thread(target=module.inner, args=(0,))
        worker.start()
        worker.join(timeout=10)
    finally:
        patches.restore()
    assert not worker.is_alive()

    by_name = {}
    for span in recorder.spans:
        by_name.setdefault(span.name, []).append(span)
    (outer,) = by_name["outer"]
    nested, threaded = sorted(by_name["inner"], key=lambda s: s.start)
    assert outer.parent_id is None
    assert nested.parent_id == outer.span_id
    assert threaded.parent_id is None  # another thread has its own stack
    assert self_times(recorder.spans)[outer.span_id] <= outer.duration


# -- wrappers ------------------------------------------------------------------------

class _Owner:
    def method(self, x):
        return ("method", x)

    @staticmethod
    def static(x):
        return ("static", x)


def test_patches_restore_the_original_objects():
    module = types.ModuleType("fake_layer")

    def function(x):
        return ("function", x)

    module.function = function
    originals = {
        "function": module.function,
        "method": _Owner.__dict__["method"],
        "static": _Owner.__dict__["static"],
    }
    recorder = Recorder()
    patches = (
        Patches(recorder)
        .add(module, "function", "f")
        .add(_Owner, "method", "m", lambda attrs, args, kwargs, result: attrs.update(x=args[1]))
        .add(_Owner, "static", "s")
    )
    for _ in range(2):  # install and restore twice: the cycle repeats cleanly
        patches.install()
        patches.install()  # a second install keeps the first originals
        try:
            assert module.function is not originals["function"]
            assert module.function(1) == ("function", 1)
            assert _Owner().method(2) == ("method", 2)
            assert _Owner.static(3) == ("static", 3)
            assert _Owner().static(4) == ("static", 4)
        finally:
            patches.restore()
        assert module.function is originals["function"]
        assert _Owner.__dict__["method"] is originals["method"]
        assert _Owner.__dict__["static"] is originals["static"]

    names = [s.name for s in recorder.spans]
    assert names.count("f") == 2 and names.count("m") == 2 and names.count("s") == 4
    assert [s.attrs for s in recorder.spans if s.name == "m"] == [{"x": 2}, {"x": 2}]
    recorded = len(recorder.spans)
    module.function(5)
    assert len(recorder.spans) == recorded  # restored code records nothing


def test_a_raising_call_still_records_its_span_and_propagates():
    module = types.ModuleType("fake_layer")

    def boom():
        raise KeyError("boom")

    module.boom = boom
    recorder = Recorder()
    patches = Patches(recorder).add(module, "boom", "boom")
    patches.install()
    try:
        with pytest.raises(KeyError):
            module.boom()
    finally:
        patches.restore()
    assert [s.name for s in recorder.spans] == ["boom"]
    assert module.boom is boom


# -- host scaling ------------------------------------------------------------------------

def test_host_factors_use_the_running_median_of_nearby_probes():
    k = PROBE_HALF_WINDOW
    probes = [10.0] * 20 + [20.0] * 20
    factors = host_factors(probes, 10.0)
    assert len(factors) == len(probes)
    assert factors[0] == factors[19 - k] == 1.0
    assert factors[20 + k] == factors[-1] == 0.5
    # one slow probe among steady ones does not move the factor
    assert host_factors([10.0] * 4 + [50.0] + [10.0] * 4, 10.0) == [1.0] * 9


def test_a_uniformly_slower_host_leaves_scaled_figures_unchanged():
    def phase(slowdown):
        p = _Phase()
        p.latencies = [[0.1 * slowdown, 0.2 * slowdown], [0.3 * slowdown]]
        p.busy = [0.3 * slowdown, 0.3 * slowdown]
        p.factors = host_factors([15.0 * slowdown] * 2, 15.0)
        p.items = 3
        return p

    base, slow = phase(1.0), phase(2.0)
    assert slow.raw_ops_per_s() == pytest.approx(base.raw_ops_per_s() / 2)
    assert slow.ops_per_s() == pytest.approx(base.ops_per_s())
    assert slow.scaled_latencies() == pytest.approx(base.scaled_latencies())


# -- the manifest ---------------------------------------------------------------------

def test_manifest_lists_the_metrics_the_benchmark_prints():
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in manifest["end_to_end"]] == list(END_TO_END)
    assert [(m["name"], m["unit"]) for m in manifest["per_layer"]] == list(PER_LAYER)
