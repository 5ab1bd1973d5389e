"""Client arrival processes.

The paper defines the *transaction arrival rate* as the combined number of
transactions sent per second from all clients (Section 4.5); clients submit
transactions open-loop, i.e. independently of how fast the network commits
them.  The :class:`ArrivalProcess` produces the inter-arrival times of a single
client given its share of the total rate.
"""

from __future__ import annotations

import random
from array import array
from math import log as _log

from repro.errors import WorkloadError


class ArrivalProcess:
    """Open-loop arrival process for one client."""

    def __init__(self, rate: float, rng: random.Random, poisson: bool = True) -> None:
        if rate <= 0:
            raise WorkloadError(f"the arrival rate must be positive, got {rate}")
        self.rate = float(rate)
        self.rng = rng
        self.poisson = poisson

    def next_interarrival(self) -> float:
        """Seconds until the next transaction of this client.

        Poisson arrivals (exponential inter-arrival times) by default; when
        ``poisson`` is False a deterministic constant-rate schedule is used,
        which is useful for fully reproducible unit tests.
        """
        if self.poisson:
            return self.rng.expovariate(self.rate)
        return 1.0 / self.rate

    def schedule(self, duration: float) -> array:
        """All arrival times in ``[0, duration)`` for this client, in order.

        The Poisson path inlines ``expovariate`` (CPython:
        ``-log(1.0 - random()) / lambd``) with the uniform source hoisted.
        The number of draws is data-dependent and the stream is shared with
        the owning client's other decisions, so the draws replay the exact
        per-call loop — one uniform per arrival, identical values and final
        RNG state — rather than over-drawing a buffer.  The times are packed
        doubles (``array('d')``, 8 bytes each): a client hands them to
        :meth:`~repro.sim.engine.Simulator.post_series`, which queues one at
        a time, so the schedule is the only copy a run keeps.
        """
        if duration < 0:
            raise WorkloadError(f"the schedule duration must be >= 0, got {duration}")
        arrivals = array("d")
        append = arrivals.append
        if self.poisson:
            rate = self.rate
            random_ = self.rng.random
            clock = -_log(1.0 - random_()) / rate
            while clock < duration:
                append(clock)
                clock += -_log(1.0 - random_()) / rate
            return arrivals
        clock = self.next_interarrival()
        while clock < duration:
            append(clock)
            clock += self.next_interarrival()
        return arrivals
