"""Calendar-queue discrete-event simulation engine.

Scheduled callbacks live in a two-level calendar queue: a near-term *wheel*
of time buckets covering one revolution ``[ring_start, ring_start +
256 * width)`` plus a far-term *overflow* heap for everything beyond that
horizon.  Scheduling into the wheel is an O(1) list append; a bucket is only
ordered (heapified) when the clock reaches it, and entries that land in an
already-drained bucket — or exactly at the current time — go straight into
the active bucket's heap.  The bucket width adapts: it doubles when a
revolution dispatches too few events and halves when buckets grow crowded,
so millisecond-spaced network hops and sparse far-future timers are both
O(1) amortized per event.

Queue entries are plain ``(time, sequence, callback, args, handle)`` tuples
ordered by the same ``(time, sequence)`` tie-break the original heapq engine
used: events run in non-decreasing time order and equal-time events run in
scheduling order, bit-identical to a single binary heap (the golden
lifecycle records pin this; ``tests/reference_engine.py`` keeps the original
engine as the differential-testing oracle).

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

#: Buckets per wheel revolution.
_BUCKET_COUNT = 256
#: Initial bucket width in simulated seconds (network hops are milliseconds).
_INITIAL_WIDTH = 1.0 / 1024.0
#: Width clamps are exact powers of two so the bucket map can multiply by the
#: stored inverse width (cheaper than dividing) without changing a single
#: bucket assignment: scaling by an exact power of two is exact either way.
_MIN_WIDTH = 2.0**-30
_MAX_WIDTH = 2.0**40
#: A revolution dispatching fewer events than this doubles the bucket width;
#: one dispatching more than ``_DENSE_REVOLUTION`` halves it.  The dense bound
#: targets ~32 entries per bucket: binary-heap pops inside a bucket run at C
#: speed, while activating a bucket costs a Python-level refill, so larger
#: buckets win until heap depth starts to matter.
_SPARSE_REVOLUTION = _BUCKET_COUNT // 8
_DENSE_REVOLUTION = _BUCKET_COUNT * 32
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
        "_compact_pending",
        "_ring",
        "_ring_pos",
        "_ring_start",
        "_near_count",
        "_current",
        "_overflow",
        "_width",
        "_inv_width",
        "_horizon",
        "_rev_mark",
        "_profiler",
    )

    def __init__(self) -> None:
        self._now = 0.0
        self._sequence = 0
        self._processed = 0
        self._running = False
        self._live = 0
        self._cancelled = 0
        self._compact_pending = False
        self._ring: list[list] = [[] for _ in range(_BUCKET_COUNT)]
        self._ring_pos = 0
        self._ring_start = 0.0
        self._near_count = 0
        self._current: list = []
        self._overflow: list = []
        self._width = _INITIAL_WIDTH
        self._inv_width = 1.0 / _INITIAL_WIDTH
        self._horizon = _BUCKET_COUNT * _INITIAL_WIDTH
        self._rev_mark = 0
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

    @property
    def next_event_time(self) -> float:
        """Timestamp of the earliest queued entry (``inf`` when empty).

        A lower bound: a cancelled-but-not-yet-evicted entry may report an
        earlier time than the first live event.  That is exactly what the
        conservative epoch loop (:mod:`repro.channels.network`) needs to skip
        empty barrier windows — skipping too little is safe, skipping past a
        live event would not be.  With zero live events the queue *is* empty
        (whatever cancelled husks remain will never run), so the bound must
        be ``inf`` — a husk's finite timestamp would make an exhausted
        simulator look forever busy.
        """
        if not self._live:
            return _INF
        best = _INF
        if self._current:
            best = self._current[0][0]
        if self._near_count:
            ring = self._ring
            for index in range(self._ring_pos + 1, _BUCKET_COUNT):
                bucket = ring[index]
                if bucket:
                    earliest = min(entry[0] for entry in bucket)
                    if earliest < best:
                        best = earliest
                    break  # later buckets only hold later times
        if self._overflow and self._overflow[0][0] < best:
            best = self._overflow[0][0]
        return best

    def queue_stats(self) -> dict:
        """Internal queue occupancy, for tests and the engine profiler.

        ``queued_entries`` counts every entry physically retained (live plus
        cancelled-awaiting-eviction); the compaction bound guarantees it never
        exceeds ``2 * live + 512``.
        """
        return {
            "live": self._live,
            "cancelled": self._cancelled,
            "queued_entries": len(self._current) + self._near_count + len(self._overflow),
            "overflow": len(self._overflow),
            "bucket_width": self._width,
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
        entry = (time, sequence, callback, args, handle)
        if time < self._horizon:
            index = int((time - self._ring_start) * self._inv_width)
            if index >= _BUCKET_COUNT:  # float rounding at the horizon edge
                index = _BUCKET_COUNT - 1
            if index <= self._ring_pos:
                heappush(self._current, entry)
            else:
                self._ring[index].append(entry)
                self._near_count += 1
        else:
            heappush(self._overflow, entry)
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
        entry = (time, sequence, callback, args, None)
        if time < self._horizon:
            index = int((time - self._ring_start) * self._inv_width)
            if index >= _BUCKET_COUNT:
                index = _BUCKET_COUNT - 1
            if index <= self._ring_pos:
                heappush(self._current, entry)
            else:
                self._ring[index].append(entry)
                self._near_count += 1
        else:
            heappush(self._overflow, entry)
        self._live += 1

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """Hot-path :meth:`schedule_at` without a cancellation handle."""
        if not self._now <= time < _INF:
            self._reject_time(time)
        sequence = self._sequence
        self._sequence = sequence + 1
        entry = (time, sequence, callback, args, None)
        if time < self._horizon:
            index = int((time - self._ring_start) * self._inv_width)
            if index >= _BUCKET_COUNT:
                index = _BUCKET_COUNT - 1
            if index <= self._ring_pos:
                heappush(self._current, entry)
            else:
                self._ring[index].append(entry)
                self._near_count += 1
        else:
            heappush(self._overflow, entry)
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
            # Mid-run, compaction must wait for a batch boundary: the dispatch
            # loop holds a reference to the active bucket's heap.
            if self._running:
                self._compact_pending = True
            else:
                self._compact()

    def _compact(self) -> None:
        """Evict every cancelled entry, rebuilding the queue structures.

        The active bucket and the overflow heap are rebuilt *in place*
        (slice assignment + heapify) so that the dispatch loop's reference to
        the active bucket stays valid across a deferred mid-run compaction.
        """

        def live_entries(entries: list) -> list:
            return [e for e in entries if e[4] is None or e[4]._state == _LIVE]

        current = self._current
        current[:] = live_entries(current)
        heapify(current)
        ring = self._ring
        near = 0
        for index in range(_BUCKET_COUNT):
            if ring[index]:
                ring[index] = bucket = live_entries(ring[index])
                near += len(bucket)
        self._near_count = near
        overflow = self._overflow
        overflow[:] = live_entries(overflow)
        heapify(overflow)
        self._cancelled = 0

    # ---------------------------------------------------------------- dispatch
    def _refill(self) -> bool:
        """Make the active bucket non-empty; False when the queue is drained."""
        ring = self._ring
        while True:
            if self._current:
                return True
            if self._near_count:
                pos = self._ring_pos + 1
                while pos < _BUCKET_COUNT:
                    bucket = ring[pos]
                    if bucket:
                        ring[pos] = []
                        self._near_count -= len(bucket)
                        heapify(bucket)
                        self._current = bucket
                        self._ring_pos = pos
                        return True
                    pos += 1
                self._ring_pos = _BUCKET_COUNT - 1
                continue  # stale near count cannot happen, but stay safe
            if not self._overflow:
                return False
            self._advance_revolution()

    def _advance_revolution(self) -> None:
        """Open the next wheel revolution at the earliest overflow event.

        Called with the wheel empty, which makes resizing the bucket width
        free: no queued entry has to be re-filed.  The new window starts at
        the overflow top, so runs of empty buckets are skipped outright.
        """
        dispatched = self._processed - self._rev_mark
        self._rev_mark = self._processed
        width = self._width
        if dispatched < _SPARSE_REVOLUTION and width < _MAX_WIDTH:
            width *= 2.0
        elif dispatched > _DENSE_REVOLUTION and width > _MIN_WIDTH:
            width *= 0.5
        self._width = width
        inv_width = 1.0 / width
        self._inv_width = inv_width
        overflow = self._overflow
        start = overflow[0][0]
        horizon = start + _BUCKET_COUNT * width
        self._ring_start = start
        self._horizon = horizon
        self._ring_pos = 0
        # Overflow pops arrive in ascending order, so plain appends keep the
        # active bucket a valid heap.
        current: list = []
        self._current = current
        ring = self._ring
        near = 0
        while overflow and overflow[0][0] < horizon:
            entry = heappop(overflow)
            handle = entry[4]
            if handle is not None and handle._state == _CANCELLED:
                self._cancelled -= 1
                continue
            index = int((entry[0] - start) * inv_width)
            if index <= 0:
                current.append(entry)
            else:
                if index >= _BUCKET_COUNT:  # float rounding at the horizon edge
                    index = _BUCKET_COUNT - 1
                ring[index].append(entry)
                near += 1
        self._near_count += near

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the queue is empty or the clock passes ``until``.

        When ``until`` is given, the clock is advanced to exactly ``until`` at
        the end of the run even if the last event happened earlier, so that
        time-weighted statistics cover the whole horizon.
        """
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        if until is not None and until != until:  # NaN guard
            raise SimulationError("cannot run until a NaN time")
        self._running = True
        pop = heappop
        limit = _INF if until is None else until
        try:
            # Outer loop: one iteration per active-bucket drain.  The
            # per-event work all happens in the inner loop; termination,
            # refill and deferred compaction are only checked per bucket.
            # (Deferred compaction rebuilds the active bucket in place, so
            # the inner loop's ``cur`` reference would stay valid even if one
            # slipped in mid-bucket — it cannot, but cheap insurance.)
            while self._live:
                if self._compact_pending:
                    self._compact_pending = False
                    self._compact()
                if not self._current and not self._refill():
                    break  # defensive: only cancelled entries remained
                cur = self._current
                while cur:
                    entry = pop(cur)
                    handle = entry[4]
                    if handle is not None and handle._state == _CANCELLED:
                        self._cancelled -= 1
                        continue
                    time = entry[0]
                    if time > limit:
                        heappush(cur, entry)
                        cur = None  # signal the outer loop to stop
                        break
                    self._now = time
                    # Batched same-timestamp dispatch: every queued entry
                    # sharing this timestamp lives in the active bucket's
                    # heap (the bucket map sends equal times to equal
                    # buckets), so the whole batch drains without
                    # re-entering the refill path.
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
                        if cur and cur[0][0] == time:
                            entry = pop(cur)
                            handle = entry[4]
                        else:
                            break
                    if self._profiler is not None:
                        self._profiler.on_batch(self, time)
                if cur is None:
                    break
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
