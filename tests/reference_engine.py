"""Reference heapq simulation engine (the pre-calendar-queue implementation).

A test oracle, like ``failure_oracle.py`` beside it: the original
single-binary-heap engine, verbatim, which shares no code with
:mod:`repro.sim.engine`.

* ``test_property_engine_equivalence.py`` replays random
  schedule/cancel/run-until interleavings against both engines and asserts
  identical callback traces and clock values.
* ``test_engine_speed_smoke.py`` drives the 30,000-transaction cascade of
  ``engine_cascade.py`` through both and asserts they dispatch the identical
  schedule.

It intentionally keeps the two historical warts the production engine fixed:
cancelled events stay in the heap (``pending_events`` counts them) and
non-finite delays slip past the ``delay < 0`` guard.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.errors import SimulationError


@dataclass(order=True)
class ReferenceEvent:
    """A scheduled callback in the reference simulation."""

    time: float
    sequence: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)

    def cancel(self) -> None:
        """Mark the event so the simulator skips it when popped."""
        self.cancelled = True


class ReferenceSimulator:
    """The original heapq-based deterministic discrete-event simulator."""

    def __init__(self) -> None:
        self._now = 0.0
        self._heap: list[ReferenceEvent] = []
        self._sequence = 0
        self._processed = 0
        self._running = False

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
        """Number of events currently queued (including cancelled ones)."""
        return len(self._heap)

    def live_pending_events(self) -> int:
        """Number of queued events that are not cancelled.

        The historical ``pending_events`` counts cancelled events too; the
        equivalence suite compares this live count against the production
        engine's ``pending_events``.
        """
        return sum(1 for event in self._heap if not event.cancelled)

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> ReferenceEvent:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule an event {delay} seconds in the past")
        return self.schedule_at(self._now + delay, callback, *args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> ReferenceEvent:
        """Schedule ``callback(*args)`` at the absolute virtual time ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule an event at t={time:.6f} before the current time "
                f"t={self._now:.6f}"
            )
        event = ReferenceEvent(time=time, sequence=self._sequence, callback=callback, args=args)
        self._sequence += 1
        heapq.heappush(self._heap, event)
        return event

    def post(self, delay: float, callback: Callable[..., None], *args: Any) -> None:
        """API-compatible alias for :meth:`schedule` that drops the handle."""
        self.schedule(delay, callback, *args)

    def post_at(self, time: float, callback: Callable[..., None], *args: Any) -> None:
        """API-compatible alias for :meth:`schedule_at` that drops the handle."""
        self.schedule_at(time, callback, *args)

    def run(self, until: Optional[float] = None) -> None:
        """Run events until the heap is empty or the clock passes ``until``."""
        if self._running:
            raise SimulationError("simulator is already running (re-entrant run() call)")
        self._running = True
        try:
            while self._heap:
                event = self._heap[0]
                if until is not None and event.time > until:
                    break
                heapq.heappop(self._heap)
                if event.cancelled:
                    continue
                self._now = event.time
                event.callback(*event.args)
                self._processed += 1
            if until is not None and until > self._now:
                self._now = until
        finally:
            self._running = False

    def run_until_empty(self) -> None:
        """Run until no events remain, regardless of how long that takes."""
        self.run(until=None)
