"""Deterministic materialization of a chaos profile into a fault timeline.

A :class:`FaultSchedule` turns the declarative rates and windows of a
:class:`~repro.faults.spec.FaultConfig` into a concrete, sorted list of typed
:class:`FaultInjection` events — *this* peer crashes at *this* virtual time
and recovers at *that* one.  Generation draws exclusively from one dedicated
seeded RNG stream and iterates targets in deterministic order, so the timeline
is a pure function of ``(config, targets, horizon, seed)``: the invariant the
``FaultSchedule`` determinism tests pin and the reason fault experiments stay
cacheable through the content-addressed result cache.
"""

from __future__ import annotations

import enum
import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.faults.spec import FaultConfig


class FaultKind(enum.Enum):
    """The typed injections a schedule can contain."""

    PEER_CRASH = "peer_crash"
    PEER_RECOVER = "peer_recover"
    ENDORSER_SLOWDOWN_START = "endorser_slowdown_start"
    ENDORSER_SLOWDOWN_END = "endorser_slowdown_end"
    ORDERER_OUTAGE_START = "orderer_outage_start"
    ORDERER_OUTAGE_END = "orderer_outage_end"
    PARTITION_START = "partition_start"
    PARTITION_END = "partition_end"


@dataclass(frozen=True)
class FaultInjection:
    """One scheduled fault event: toggle ``target`` at virtual time ``time``."""

    time: float
    kind: FaultKind
    #: Peer name for crash/slowdown events, ``"orderer"`` for outages,
    #: ``"channel<N>"`` for partitions.
    target: str


class FaultSchedule:
    """A sorted timeline of fault injections for one deployment slice."""

    def __init__(self, injections: Sequence[FaultInjection]) -> None:
        self.injections: List[FaultInjection] = sorted(
            injections, key=lambda event: (event.time, event.kind.value, event.target)
        )

    def __len__(self) -> int:
        return len(self.injections)

    def __iter__(self):
        return iter(self.injections)

    def count(self, kind: FaultKind) -> int:
        """Number of scheduled injections of ``kind``."""
        return sum(1 for event in self.injections if event.kind is kind)

    @classmethod
    def generate(
        cls,
        config: FaultConfig,
        peers: Sequence[str],
        endorsers: Sequence[str],
        horizon: float,
        rng: random.Random,
        channel: Optional[int] = None,
    ) -> "FaultSchedule":
        """Materialize the timeline of one run.

        ``peers`` / ``endorsers`` are the component names eligible for crash
        and slowdown injections, iterated in the given (deterministic) order.
        New degradation episodes start within ``[0, horizon)`` — the client
        submission window — while recoveries may land beyond it, exactly like
        a real outage can outlive the measurement interval.  ``channel``
        selects which partition windows apply to this slice (``None`` or
        ``0`` on the classic single-channel path).
        """
        injections: List[FaultInjection] = []
        for peer in peers:
            injections.extend(
                cls._episodes(
                    rng=rng,
                    rate=config.peer_crash_rate,
                    mean_duration=config.peer_downtime,
                    horizon=horizon,
                    target=peer,
                    start_kind=FaultKind.PEER_CRASH,
                    end_kind=FaultKind.PEER_RECOVER,
                )
            )
        for endorser in endorsers:
            injections.extend(
                cls._episodes(
                    rng=rng,
                    rate=config.endorser_slowdown_rate,
                    mean_duration=config.endorser_slowdown_duration,
                    horizon=horizon,
                    target=endorser,
                    start_kind=FaultKind.ENDORSER_SLOWDOWN_START,
                    end_kind=FaultKind.ENDORSER_SLOWDOWN_END,
                )
            )
        for start, duration in config.orderer_outages:
            injections.append(FaultInjection(start, FaultKind.ORDERER_OUTAGE_START, "orderer"))
            injections.append(
                FaultInjection(start + duration, FaultKind.ORDERER_OUTAGE_END, "orderer")
            )
        slice_channel = 0 if channel is None else channel
        for partition_channel, start, duration in config.partitions:
            if partition_channel != slice_channel:
                continue
            target = f"channel{partition_channel}"
            injections.append(FaultInjection(start, FaultKind.PARTITION_START, target))
            injections.append(
                FaultInjection(start + duration, FaultKind.PARTITION_END, target)
            )
        return cls(injections)

    @staticmethod
    def _episodes(
        rng: random.Random,
        rate: float,
        mean_duration: float,
        horizon: float,
        target: str,
        start_kind: FaultKind,
        end_kind: FaultKind,
    ) -> List[FaultInjection]:
        """Poisson episodes for one target: down windows never overlap.

        The next episode candidate is drawn from the previous episode's *end*
        (a component cannot crash while already down), giving an alternating
        renewal process with exponential up- and downtime.
        """
        if rate <= 0:
            return []
        events: List[FaultInjection] = []
        time = rng.expovariate(rate)
        while time < horizon:
            duration = rng.expovariate(1.0 / mean_duration)
            events.append(FaultInjection(time, start_kind, target))
            events.append(FaultInjection(time + duration, end_kind, target))
            time = time + duration + rng.expovariate(rate)
        return events
