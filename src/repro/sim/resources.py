"""FIFO service stations for modelling peers and the ordering service.

A :class:`ServiceStation` is a (possibly multi-server) FIFO queue: jobs
submitted while all servers are busy wait and are served in submission order.
This is the queueing abstraction behind every latency effect in the study —
validation backlog on peers at small block sizes, ordering backlog for
Streamchain at high arrival rates, endorsement backlog for range-heavy
CouchDB workloads, and so on.

Single-server stations model the strictly sequential parts of Fabric (block
validation/commit on a peer, consensus in the ordering service); multi-server
stations model work that overlaps in practice, such as endorsement requests
waiting on the external CouchDB database.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Tuple

from repro.errors import SimulationError
from repro.sim.engine import Simulator


class ServiceStation:
    """A FIFO queue with ``servers`` identical servers on a :class:`Simulator`.

    Because service is FIFO and non-preemptive, the station only needs to track
    when each server becomes free; ``submit`` assigns the job to the earliest
    available server and schedules the completion callback.
    """

    def __init__(self, sim: Simulator, name: str = "station", servers: int = 1) -> None:
        if servers < 1:
            raise SimulationError(f"a service station needs at least one server, got {servers}")
        self.sim = sim
        # Completion events are never cancelled, so the handle-free fast path
        # avoids one Event allocation per job; bound once, called per job.
        # ``submit``'s packed ``args`` go to the queue as they are.
        self._post_at = sim.post_at
        self.name = name
        self.servers = servers
        self._single = servers == 1
        self._free_at = [0.0] * servers
        heapq.heapify(self._free_at)
        self.jobs_served = 0
        self.busy_time = 0.0
        #: Seconds jobs spent queued before a server took them, summed.
        self.waiting_total = 0.0

    def submit(
        self,
        service_time: float,
        callback: Callable[..., None] | None = None,
        *args: Any,
    ) -> float:
        """Enqueue a job with the given service time.

        ``callback(*args)`` is scheduled at the job's completion time.  Returns
        the completion time so callers can chain further delays onto it.
        """
        if service_time < 0:
            raise SimulationError(f"negative service time {service_time} on {self.name}")
        now = self.sim.now
        free_at = self._free_at
        start = free_at[0]
        if start > now:
            self.waiting_total += start - now
        else:
            start = now
        completion = start + service_time
        if self._single:
            # Single-server stations (validation, consensus) skip the heap:
            # the lone slot is overwritten in place.
            free_at[0] = completion
        else:
            heapq.heapreplace(free_at, completion)
        self.jobs_served += 1
        self.busy_time += service_time
        if callback is not None:
            self._post_at(completion, callback, args)
        return completion

    def charge(self, jobs: Iterable[Tuple[float, float]]) -> None:
        """Serve ``(arrival, service time)`` jobs in order, posting no event.

        Charges exactly what :meth:`submit` at each arrival would have —
        ``waiting_total``, ``busy_time``, ``jobs_served`` and the time the
        server is free — for a single-server station whose completions
        nobody waits on.  ``jobs`` must be in arrival order.
        """
        if not self._single:
            raise SimulationError(f"{self.name} has {self.servers} servers; charge serves one")
        free = self._free_at[0]
        waiting = self.waiting_total
        busy = self.busy_time
        served = self.jobs_served
        for arrival, service_time in jobs:
            if free > arrival:
                waiting += free - arrival
            else:
                free = arrival
            free += service_time
            busy += service_time
            served += 1
        self._free_at[0] = free
        self.waiting_total = waiting
        self.busy_time = busy
        self.jobs_served = served

    @property
    def free_at(self) -> float:
        """When the earliest server becomes free (its last completion, 0 if it never ran)."""
        return min(self._free_at)

    @property
    def backlog(self) -> float:
        """Seconds until the earliest server becomes free (0 when idle)."""
        return max(0.0, self.free_at - self.sim.now)

    def utilization(self, horizon: float) -> float:
        """Fraction of the station's total capacity used over ``horizon`` seconds."""
        if horizon <= 0:
            return 0.0
        return min(1.0, self.busy_time / (horizon * self.servers))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ServiceStation(name={self.name!r}, servers={self.servers}, "
            f"jobs={self.jobs_served}, backlog={self.backlog:.3f}s)"
        )
