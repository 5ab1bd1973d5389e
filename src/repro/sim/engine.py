"""Binary-heap discrete-event simulation engine.

Scheduled callbacks live in one binary heap (``heapq``) of plain ``(time,
sequence, callback, args, handle)`` tuples, ordered by the ``(time,
sequence)`` tie-break: events run in non-decreasing time order and
equal-time events run in scheduling order (the golden lifecycle records pin
this; ``tests/reference_engine.py`` keeps the original engine as the
differential-testing oracle).  Events sharing a timestamp are dispatched as
one *batch*; an event posted at the current time during a batch joins it.

:meth:`Simulator.post` / :meth:`Simulator.post_at` are the hot-path variants
that skip allocating a cancellation handle; :meth:`Simulator.schedule` /
:meth:`Simulator.schedule_at` return an :class:`Event` that can be
cancelled.  Cancelled events are *evicted* — lazily when their entry is
popped, eagerly by a compaction pass once they outnumber the live events —
so :attr:`Simulator.pending_events` counts live events only and the queue
cannot grow without bound under retry/timeout cancellation storms.

There is no wall-clock coupling — simulated seconds are just floating point
numbers — which is what makes sweeping hundreds of Fabric configurations
cheap.  An opt-in profiler (:mod:`repro.sim.profile`) observes dispatch
batches; when detached it costs one predictable branch per batch.
"""

from __future__ import annotations

import math
from heapq import heapify, heappop, heappush
from typing import TYPE_CHECKING, Any, Callable, Optional

from repro.errors import SimulationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim.profile import EngineProfiler

_INF = math.inf

#: :class:`Event` handle states: queued, queued-but-cancelled (awaiting
#: eviction), and dispatched-or-evicted.
_LIVE, _CANCELLED, _DONE = 0, 1, 2

#: Compact (evict every cancelled entry at once) only past this count *and*
#: only when cancelled entries outnumber live ones, which bounds the queue at
#: ``2 * live + _COMPACT_MIN_CANCELLED`` entries.
_COMPACT_MIN_CANCELLED = 512


class Event:
    """Cancellation handle of one scheduled callback.

    Events order by ``(time, sequence)`` so that events scheduled earlier in
    real (scheduling) order break ties deterministically; the handle records
    both for inspection.  Handles are only allocated by :meth:`Simulator.
    schedule` / :meth:`Simulator.schedule_at` — the ``post`` fast paths skip
    them entirely.
    """

    __slots__ = ("time", "sequence", "_sim", "_state")

    def __init__(self, time: float, sequence: int, sim: "Simulator") -> None:
        self.time = time
        self.sequence = sequence
        self._sim = sim
        self._state = _LIVE

    @property
    def cancelled(self) -> bool:
        """True once :meth:`cancel` marked the event for eviction."""
        return self._state == _CANCELLED

    def cancel(self) -> None:
        """Cancel the event so it never runs (no-op once dispatched).

        The entry is evicted from the queue: lazily when its turn comes, or
        eagerly by a compaction pass when cancelled entries outnumber live
        ones — either way :attr:`Simulator.pending_events` drops immediately.
        """
        if self._state == _LIVE:
            self._state = _CANCELLED
            self._sim._note_cancel()


class Simulator:
    """A deterministic discrete-event simulator with a virtual clock.

    Typical usage::

        sim = Simulator()
        sim.schedule(1.5, callback, arg1, arg2)
        sim.run(until=60.0)

    The simulator guarantees that callbacks run in non-decreasing time order
    and that two events scheduled for the same time run in scheduling order.
    """

    __slots__ = (
        "_now",
        "_sequence",
        "_processed",
        "_running",
        "_live",
        "_cancelled",
        "_heap",
        "_profiler",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._processed = 0
        self._running = False
        self._live = 0
        self._cancelled = 0
        self._heap: list = []
        self._profiler: Optional["EngineProfiler"] = None

    # ------------------------------------------------------------- inspection
    @property
    def now(self) -> float:
        """Current virtual time in seconds."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (cancelled events excluded)."""
        return self._processed

    @property
    def pending_events(self) -> int:
        """Number of *live* events currently queued (cancelled ones excluded)."""
        return self._live

    def queue_stats(self) -> dict:
        """Internal queue occupancy, for tests and the engine profiler.

        ``queued_entries`` counts every entry physically retained (live plus
        cancelled-awaiting-eviction); the compaction bound guarantees it never
        exceeds ``2 * live + 512``.
        """
        return {
            "live": self._live,
            "cancelled": self._cancelled,
            "queued_entries": len(self._heap),
        }

    # ------------------------------------------------------------- scheduling
    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Negative delays are rejected because they would violate causality;
        NaN and infinite delays are rejected because they would silently
        corrupt the queue order.  Returns the :class:`Event` handle, which can
        be cancelled — use :meth:`post` when the handle is never needed.
        """
        if not 0.0 <= delay < _INF:
            self._reject_delay(delay)
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at the absolute virtual time ``time``."""
        if not self._now <= time < _INF:
            self._reject_time(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        handle = Event(time, sequence, self)
        heappush(self._heap, (time, sequence, callback, args, handle))
        self._live += 1
        return handle

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """Hot-path :meth:`schedule` without a cancellation handle.

        Identical ordering semantics (the same sequence counter is consumed),
        but no :class:`Event` is allocated — the event cannot be cancelled.
        The queue insert is inlined rather than delegated to :meth:`post_at`:
        this is the hottest call in the network model.
        """
        if not 0.0 <= delay < _INF:
            self._reject_delay(delay)
        time = self._now + delay
        if time == _INF:  # overflow of now + delay
            self._reject_time(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (time, sequence, callback, args, None))
        self._live += 1

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Hot-path :meth:`schedule_at` without a cancellation handle."""
        if not self._now <= time < _INF:
            self._reject_time(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        heappush(self._heap, (time, sequence, callback, args, None))
        self._live += 1

    def _reject_delay(self, delay: float) -> None:
        if not math.isfinite(delay):
            raise SimulationError(
                f"cannot schedule an event after a non-finite delay ({delay!r})"
            )
        raise SimulationError(f"cannot schedule an event {delay} seconds in the past")

    def _reject_time(self, time: float) -> None:
        if not math.isfinite(time):
            raise SimulationError(
                f"cannot schedule an event at the non-finite time t={time!r}"
            )
        raise SimulationError(
            f"cannot schedule an event at t={time:.6f} before the current time "
            f"t={self._now:.6f}"
        )

    # ------------------------------------------------------------ cancellation
    def _note_cancel(self) -> None:
        self._live -= 1
        self._cancelled += 1
        if self._cancelled >= _COMPACT_MIN_CANCELLED and self._cancelled > self._live:
            self._compact()

    def _compact(self) -> None:
        """Evict every cancelled entry, rebuilding the heap.

        The heap is rebuilt *in place* (slice assignment + heapify), so the
        dispatch loop's reference to it stays valid when a callback's
        cancellation compacts it in the middle of a run.
        """
        heap = self._heap
        heap[:] = [e for e in heap if e[4] is None or e[4]._state == _LIVE]
        heapify(heap)
        self._cancelled = 0

    # ---------------------------------------------------------------- dispatch
    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue is empty or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until`` at
        the end of the run even if the last event happened earlier, so that
        time-weighted statistics cover the whole horizon.  A non-finite
        ``until`` is rejected: the clock must stay finite for later events.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        if until is not None and not math.isfinite(until):
            if until != until:
                raise SimulationError("cannot run until a NaN time")
            raise SimulationError(f"cannot run until the non-finite time {until!r}")
        self._running = True
        heap = self._heap
        pop = heappop
        limit = _INF if until is None else until
        try:
            while self._live:
                entry = pop(heap)
                handle = entry[4]
                # Evict a cancelled top entry before the clock moves, so the
                # clock never lands on a timestamp holding only cancelled
                # events.
                if handle is not None and handle._state == _CANCELLED:
                    self._cancelled -= 1
                    continue
                time = entry[0]
                if time > limit:
                    heappush(heap, entry)
                    break
                self._now = time
                # Batched same-timestamp dispatch: every queued entry sharing
                # this timestamp — including ones posted at ``now`` by the
                # batch itself — drains before the profiler sees the batch.
                while True:
                    if handle is None:
                        self._live -= 1
                        self._processed += 1
                        entry[2](*entry[3])
                    elif handle._state == _LIVE:
                        handle._state = _DONE
                        self._live -= 1
                        self._processed += 1
                        entry[2](*entry[3])
                    else:
                        self._cancelled -= 1
                    if heap and heap[0][0] == time:
                        entry = pop(heap)
                        handle = entry[4]
                    else:
                        break
                if self._profiler is not None:
                    self._profiler.on_batch(self, time)
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_until_empty(self) -> None:
        """Run until no events remain, regardless of how long that takes."""
        self.run(until=None)

    # ---------------------------------------------------------------- profiling
    @property
    def profiler_attached(self) -> bool:
        """True while a profiler observes this simulator (only one may)."""
        return self._profiler is not None

    def attach_profiler(self, profiler: "EngineProfiler") -> None:
        """Install ``profiler`` to observe dispatch batches (one at a time)."""
        if self._profiler is not None:
            raise SimulationError("a profiler is already attached to this simulator")
        self._profiler = profiler

    def detach_profiler(self) -> None:
        """Remove the attached profiler (no-op when none is attached)."""
        self._profiler = None
