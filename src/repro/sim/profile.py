"""Opt-in engine profiling: events/sec and queue-depth histograms.

The profiler observes the engine's dispatch loop at *batch* granularity (one
batch = all events sharing a timestamp).  It is strictly opt-in: a detached
simulator pays one ``is not None`` branch per batch and nothing else, so the
hot path stays hot.  Typical usage::

    profiler = EngineProfiler(sim)
    with profiler:
        sim.run_until_empty()
    report = profiler.report()
    print(report["events_per_sec"], report["depth_histogram"])

``depth_histogram`` maps power-of-two buckets of the live queue depth (the
key ``"2^k"`` covers depths in ``[2^(k-1), 2^k)``, with ``"0"`` for an empty
queue) to the number of batches observed at that depth — a cheap stand-in
for a full heap-depth timeline that still shows whether the queue stays
shallow or balloons.
"""

from __future__ import annotations

import time as _time
from typing import TYPE_CHECKING, Dict, List, Optional

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.engine import Simulator

#: Depth buckets: one per bit length of a queue depth below ``2^64``.
_BUCKETS = 65


class EngineProfiler:
    """Measures events/sec and queue-depth distribution of one simulator run.

    Use as a context manager around ``sim.run(...)``; the wall-clock window is
    the time spent inside the ``with`` block.  The profiler may be reused for
    several windows — counters accumulate across them.
    """

    def __init__(self, sim: "Simulator") -> None:
        self._sim = sim
        self._started: Optional[float] = None
        self._events_at_start = 0
        self.events = 0
        self.wall_seconds = 0.0
        self.max_depth = 0
        #: Batches observed per depth bucket, indexed by ``depth.bit_length()``.
        self._depth_counts: List[int] = [0] * _BUCKETS

    # ------------------------------------------------------------- lifecycle
    def __enter__(self) -> "EngineProfiler":
        self._sim.attach_profiler(self)
        self._events_at_start = self._sim.processed_events
        self._started = _time.perf_counter()
        return self

    def __exit__(self, *exc_info: object) -> None:
        elapsed = _time.perf_counter() - self._started if self._started is not None else 0.0
        self._started = None
        self.wall_seconds += elapsed
        self.events += self._sim.processed_events - self._events_at_start
        self._sim.detach_profiler()

    # -------------------------------------------------------------- observing
    def on_batch(self, sim: "Simulator", now: float) -> None:
        """Engine callback, invoked once per same-timestamp dispatch batch.

        Runs once per batch on the engine's dispatch loop, so it reads the
        engine's ``_live`` counter directly instead of going through the
        ``pending_events`` property — a profiled run should perturb the
        events/sec it measures as little as possible.
        """
        depth = sim._live
        if depth > self.max_depth:
            self.max_depth = depth
        self._depth_counts[depth.bit_length()] += 1

    # -------------------------------------------------------------- reporting
    @property
    def batches(self) -> int:
        """Dispatch batches observed: the sum of the depth buckets."""
        return sum(self._depth_counts)

    @property
    def depth_histogram(self) -> Dict[str, int]:
        """Live-queue-depth histogram over batches, keyed ``"0"``/``"2^k"``."""
        return {
            "0" if bucket == 0 else f"2^{bucket}": count
            for bucket, count in enumerate(self._depth_counts)
            if count
        }

    @property
    def events_per_sec(self) -> float:
        """Dispatched events per wall-clock second over the profiled windows."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return self.events / self.wall_seconds

    def report(self) -> dict:
        """All collected metrics as one JSON-serialisable dictionary."""
        batches = self.batches
        return {
            "events": self.events,
            "batches": batches,
            "wall_seconds": self.wall_seconds,
            "events_per_sec": self.events_per_sec,
            "events_per_batch": (self.events / batches) if batches else 0.0,
            "max_queue_depth": self.max_depth,
            "depth_histogram": self.depth_histogram,
        }
