"""The measured loop shared by every workload, and the result line.

A workload object provides:

* ``probe`` and ``gc_generation`` — the host probe (below) and the oldest
  generation collected between ops;
* ``setup(seed)`` — make every input from the seed and bring the program to
  the state the timed ops need.  It runs several times, with ``close()``
  between, and the median is the set-up time;
* ``block(index)`` — the ops of block ``index``;
* ``run(op)`` — run one op and return ``(latencies_s, failed)``: one latency
  per completed item (a set of plans, a round or a job) and the number of items
  that failed; ``items_per_op(op)`` is the count when ``run`` raises;
* ``check(op)`` — check the outputs of the op just run; returns how many
  of its items are wrong.  Runs outside the timed window;
* ``finish()`` — checks that need the whole run; returns failed items;
* ``patches(recorder)`` and ``set_traced(on)`` — the span wrappers;
* ``layer_metrics(spans, ops)`` — the workload's per-layer metrics;
* ``peak_rss_mb()`` and ``close()``.

The loop is closed: one caller sends the next op after the previous one
returned.  Between ops, outside the timed window, it checks outputs and
collects garbage.  The timed window is the time spent inside ops; it closes
at the first block boundary after ``seconds`` of it, so checking and
garbage collection do not change how many ops a run holds.  Throughput is
completed items over the timed window.  A traced run alternates untraced
and traced blocks, so the two halves see the same mix and the same drift;
their throughput ratio is the tracing overhead.

The benchmark shares its host, whose speed drifts by up to a factor of two
between runs and within one.  So before every op, and around every set-up,
the loop times a host probe: a fixed miniature of the workload's kind of
work (``probe``, ``"python"`` or ``"numpy"``) that runs no program code.
Every reported time is scaled by the probe's reference time over its
running median near that op (``host_factors``), which reads it in
milliseconds of the reference host.  A slower program moves the scaled
figures; a slower host moves program and probe alike and leaves them.
"""

from __future__ import annotations

import gc
import json
import statistics
import time

import numpy as np

from .layers import PER_LAYER
from .spans import Recorder, percentile

SETUP_REPS = 5
#: probes on each side of an op whose median gives its host factor
PROBE_HALF_WINDOW = 4
WINDOW_CAP_FACTOR = 3
WINDOW_CAP_SLACK_S = 30.0
#: this many ops raising in a row means the program is broken
MAX_CONSECUTIVE_ERRORS = 5

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def _without_gc(probe):
    """Time ``probe`` with the collector off: a collection it triggered
    would scan the program's heap, and the probe must not depend on that."""

    def timed() -> float:
        gc.disable()
        try:
            return probe()
        finally:
            gc.enable()

    return timed


@_without_gc
def probe_python() -> float:
    """Interpreter-bound work like the DD code's: tuple keys, dict lookups
    and complex arithmetic.  Returns milliseconds."""
    start = time.perf_counter()
    table: dict = {}
    acc = 0j
    for i in range(20_000):
        key = (i % 97, i % 89, complex(i % 7, i % 5))
        value = table.get(key)
        if value is None:
            table[key] = value = complex(i, 1) * 0.5
        acc += value
    return (time.perf_counter() - start) * 1e3


_NUMPY_DATA = []


@_without_gc
def probe_numpy() -> float:
    """Memory-bound array work like spMM's: gathers and multiply-adds over
    half a megabyte of complex numbers.  Returns milliseconds."""
    if not _NUMPY_DATA:
        rng = np.random.default_rng(0)
        _NUMPY_DATA[:] = [
            rng.standard_normal(1 << 15) + 0j, rng.permutation(1 << 15)
        ]
    x, index = _NUMPY_DATA
    start = time.perf_counter()
    y = x
    for _ in range(40):
        y = y[index] * 0.5 + x
    return (time.perf_counter() - start) * 1e3


#: each probe and its time on the reference host, in milliseconds
PROBES = {"python": (probe_python, 15.0), "numpy": (probe_numpy, 5.0)}


def host_factors(probes: list[float], reference_ms: float) -> list[float]:
    """Reference over the running median of the probes around each one."""
    k = PROBE_HALF_WINDOW
    return [
        reference_ms / statistics.median(probes[max(0, i - k): i + k + 1])
        for i in range(len(probes))
    ]


class _Phase:
    """Per-op latencies, busy times and host factors of one half of a run."""

    def __init__(self) -> None:
        self.latencies: list[list[float]] = []
        self.busy: list[float] = []
        self.factors: list[float] = []
        self.items = 0

    def scaled_latencies(self) -> list[float]:
        return [
            latency * factor
            for op, factor in zip(self.latencies, self.factors)
            for latency in op
        ]

    def ops_per_s(self) -> float:
        busy = sum(b * f for b, f in zip(self.busy, self.factors))
        return self.items / busy if busy else 0.0

    def raw_ops_per_s(self) -> float:
        busy = sum(self.busy)
        return self.items / busy if busy else 0.0


def measure(workload, seed: int, seconds: float, trace: bool, log) -> dict:
    """Set up, run the timed window, check, and return the result record.

    The workload is closed on every exit path, so no server outlives the run.
    """
    try:
        return _measure(workload, seed, seconds, trace, log)
    finally:
        workload.close()


def _measure(workload, seed: int, seconds: float, trace: bool, log) -> dict:
    probe, reference_ms = PROBES[workload.probe]
    run_start = time.perf_counter()
    gc.collect()
    setups, setup_probes = [], [probe()]
    for rep in range(SETUP_REPS):
        if rep:
            workload.close()
        gc.collect()
        start = time.perf_counter()
        workload.setup(seed)
        setups.append(time.perf_counter() - start)
        gc.collect()
        setup_probes.append(probe())

    window_start = time.perf_counter()
    # ops that fail fast add little busy time; the wall cap still ends the run
    window_cap = window_start + WINDOW_CAP_FACTOR * seconds + WINDOW_CAP_SLACK_S
    recorder = Recorder()
    patches = workload.patches(recorder) if trace else None
    phases = {False: _Phase(), True: _Phase()}
    probes: list[float] = []
    op_phase: list[bool] = []
    busy_s = 0.0
    attempted = failed = 0
    errors: list[str] = []
    streak = 0
    index = 0
    try:
        while (
            busy_s < seconds
            and time.perf_counter() < window_cap
            and streak < MAX_CONSECUTIVE_ERRORS
        ):
            traced = trace and index % 2 == 1
            if trace:
                workload.set_traced(traced, patches)
            phase = phases[traced]
            for op in workload.block(index):
                gc.collect(workload.gc_generation)
                probes.append(probe())
                op_phase.append(traced)
                start = time.perf_counter()
                try:
                    latencies, op_failed = workload.run(op)
                    streak = 0
                except Exception as exc:  # a failed op is counted, not fatal
                    latencies, op_failed = [], workload.items_per_op(op)
                    errors.append(f"{type(exc).__name__}: {exc}")
                    streak += 1
                elapsed = time.perf_counter() - start
                busy_s += elapsed
                phase.busy.append(elapsed)
                phase.latencies.append(latencies)
                phase.items += len(latencies)
                attempted += len(latencies) + op_failed
                failed += op_failed
                if latencies:
                    recorder.paused = True
                    failed += workload.check(op)
                    recorder.paused = False
            index += 1
    finally:
        if trace:
            workload.set_traced(False, patches)
    window_end = time.perf_counter()
    failed += workload.finish()
    workload.close()
    log(f"wall      : {window_start - run_start:.1f} s set-up and probes, "
        f"{window_end - window_start:.1f} s window with checks and probes, "
        f"{time.perf_counter() - window_end:.1f} s final checks and close")
    for message in errors[:5]:
        log(f"error     : {message}")

    for traced, factor in zip(op_phase, host_factors(probes, reference_ms)):
        phases[traced].factors.append(factor)
    setup_factor = reference_ms / statistics.median(setup_probes)
    plain = phases[False]
    record = {
        "attempted": attempted,
        "failed": failed,
        "calib_ms": statistics.median(probes or setup_probes),
        "probe": f"{workload.probe}, reference {reference_ms:g} ms",
        "raw": {
            "setup_s": statistics.median(setups),
            "ops_per_s": plain.raw_ops_per_s(),
        },
    }
    latencies = plain.scaled_latencies()
    if not latencies:
        raise RuntimeError("no op completed in the untraced window")
    p50, samples, _ = percentile(latencies, 50)
    p90, _, beyond = percentile(latencies, 90)
    raw = [latency for op in plain.latencies for latency in op]
    record["raw"]["latency_p50_ms"] = percentile(raw, 50)[0] * 1e3
    record["raw"]["latency_p90_ms"] = percentile(raw, 90)[0] * 1e3
    record["samples"] = samples
    record["beyond_p90"] = beyond
    record["end_to_end"] = {
        "setup_s": statistics.median(setups) * setup_factor,
        "ops_per_s": plain.ops_per_s(),
        "latency_p50_ms": p50 * 1e3,
        "latency_p90_ms": p90 * 1e3,
        "peak_rss_mb": workload.peak_rss_mb(),
    }
    if trace:
        hot = phases[True]
        layers = {name: 0.0 for name, _ in PER_LAYER}
        layers.update(workload.layer_metrics(recorder.spans, hot.items))
        layers["host.calib_ms"] = record["calib_ms"]
        layers["trace.overhead_pct"] = (
            (plain.ops_per_s() - hot.ops_per_s()) / plain.ops_per_s() * 100.0
        )
        record["per_layer"] = layers
    return record


def result_line(record: dict, trace: bool) -> str:
    """The JSON object the benchmark prints last."""
    if trace:
        metrics = {
            name: {"value": record["per_layer"][name], "unit": unit}
            for name, unit in PER_LAYER
        }
    else:
        metrics = {
            name: {"value": record["end_to_end"][name], "unit": unit}
            for name, unit in END_TO_END
        }
    failed = record["failed"]
    return json.dumps({
        "correct": failed == 0,
        "attempted": record["attempted"],
        "failed": failed,
        "metrics": metrics,
    })
