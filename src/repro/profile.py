"""Wall-clock stage profiling for the simulation pipelines.

The device model reports *modeled* seconds (what the calibrated GPU would
take); this module measures *real* host seconds per pipeline stage, so
speedups of the compiled-plan hot paths are observed rather than asserted.
Simulators surface the recorded breakdown in
``SimulationResult.stats["wall_breakdown"]`` alongside the modeled
``breakdown``, using the canonical stage names of
:data:`repro.obs.CANONICAL_STAGES` (fusion/convert/io/execute).

:class:`StageTimer` is a thin view over the process-global
:class:`~repro.obs.tracer.Tracer`: every timed stage also opens a span on
it (a no-op while tracing is disabled), so the wall totals and an exported
trace always agree on stage boundaries.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Sequence

from .obs import get_tracer
from .obs.tracer import Tracer


class StageTimer:
    """Accumulates wall seconds per named pipeline stage.

    Stages may be entered repeatedly; durations accumulate.  A stage
    entered while another is open is charged to itself only: the enclosing
    stage books its own time minus the nested stage's.  The timer is
    deliberately tiny — one ``perf_counter`` pair plus one (usually no-op)
    tracer span per stage entry — so it can stay on permanently in every
    simulator run.  ``stages`` pre-registers keys at 0.0 so the breakdown
    dict has a stable key set and ordering even for stages a run skips.
    """

    def __init__(
        self, stages: Sequence[str] = (), tracer: Tracer | None = None
    ) -> None:
        self.wall: dict[str, float] = {stage: 0.0 for stage in stages}
        self._tracer = tracer
        #: per open stage, the seconds its nested stages have booked
        self._nested: list[float] = []

    @contextmanager
    def time(self, stage: str, **attrs):
        """Context manager charging the enclosed block to ``stage``.

        Yields the tracer span of the stage (a no-op span while tracing is
        disabled), so callers can attach attributes:
        ``with timer.time("fusion") as sp: sp.set(fused_gates=8)``.
        """
        tracer = self._tracer if self._tracer is not None else get_tracer()
        self._nested.append(0.0)
        t0 = time.perf_counter()
        try:
            with tracer.span(stage, category="stage", **attrs) as span:
                yield span
        finally:
            elapsed = time.perf_counter() - t0
            nested = self._nested.pop()
            if self._nested:
                self._nested[-1] += elapsed
            self.record(stage, elapsed - nested)

    def record(self, stage: str, seconds: float) -> None:
        """Add ``seconds`` of wall time to ``stage``."""
        self.wall[stage] = self.wall.get(stage, 0.0) + seconds

    def total(self) -> float:
        return sum(self.wall.values())

    def snapshot(self) -> dict[str, float]:
        """Copy of the per-stage totals (safe to stash in result stats)."""
        return dict(self.wall)

    def summary(self) -> str:
        parts = ", ".join(
            f"{stage}={seconds * 1e3:.2f}ms" for stage, seconds in self.wall.items()
        )
        return f"<StageTimer {parts}>"


@contextmanager
def stopwatch():
    """Standalone timer: ``with stopwatch() as t: ...; t.seconds``."""

    class _Watch:
        seconds = 0.0

    watch = _Watch()
    t0 = time.perf_counter()
    try:
        yield watch
    finally:
        watch.seconds = time.perf_counter() - t0
