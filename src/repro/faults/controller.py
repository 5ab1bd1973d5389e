"""The runtime half of the fault subsystem: availability toggling.

The :class:`FaultController` is armed with a
:class:`~repro.faults.schedule.FaultSchedule` and replays it on the shared
:class:`~repro.sim.engine.Simulator`: every injection flips a piece of
availability state (a peer goes down, an endorser slows, the orderer blips, a
channel partitions) at its scheduled virtual time.  Network components consult
the controller at well-defined points — the client before sending proposals,
the ordering service on submission and block cut, every peer on block delivery
— and the controller restores deferred work (queued block deliveries, pending
block cuts) when a component recovers.

One controller serves one Fabric slice; multi-channel deployments build one
per channel, so a partition window degrades exactly its channel.  Without an
enabled :class:`~repro.faults.spec.FaultConfig` no controller exists at all —
the no-fault pipeline stays bit-identical to a build without this package.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional

from repro.faults.schedule import FaultInjection, FaultKind, FaultSchedule
from repro.faults.spec import FaultConfig
from repro.sim.engine import Simulator


class FaultController:
    """Replays a fault schedule and answers availability queries."""

    def __init__(
        self,
        sim: Simulator,
        config: FaultConfig,
        loss_rng: random.Random,
        channel: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.channel = channel
        self._loss_rng = loss_rng
        self._down_peers: set[str] = set()
        self._slowed: set[str] = set()
        self._outage_depth = 0
        #: Overlapping partition windows nest like outages: the channel heals
        #: only when every open window has ended.
        self._partition_depth = 0
        self._deferred_deliveries: Dict[str, List[Callable[[], None]]] = {}
        #: Invoked (at the restoration time) when the ordering service becomes
        #: available again; the ordering service installs its deferred block
        #: cut here.
        self.on_orderer_restored: Optional[Callable[[], None]] = None
        self.armed = False
        #: Optional observability hook, invoked as ``observer(self, injection)``
        #: after every applied injection (set by the run observer to record
        #: fault-window markers in exported traces).
        self.observer: Optional[Callable[["FaultController", FaultInjection], None]] = None
        self.injections_applied: Dict[str, int] = {}
        self.lost_endorsements = 0
        self.deferred_deliveries = 0

    # ------------------------------------------------------------------ arming
    def arm(self, schedule: FaultSchedule) -> None:
        """Schedule every injection of ``schedule`` on the simulator (once)."""
        if self.armed:
            return
        self.armed = True
        for injection in schedule:
            self.sim.post_at(injection.time, self._apply, (injection,))

    def _apply(self, injection: FaultInjection) -> None:
        kind = injection.kind
        self.injections_applied[kind.value] = self.injections_applied.get(kind.value, 0) + 1
        if self.observer is not None:
            self.observer(self, injection)
        if kind is FaultKind.PEER_CRASH:
            self._down_peers.add(injection.target)
        elif kind is FaultKind.PEER_RECOVER:
            self._down_peers.discard(injection.target)
            self._flush_deliveries(injection.target)
        elif kind is FaultKind.ENDORSER_SLOWDOWN_START:
            self._slowed.add(injection.target)
        elif kind is FaultKind.ENDORSER_SLOWDOWN_END:
            self._slowed.discard(injection.target)
        elif kind is FaultKind.ORDERER_OUTAGE_START:
            self._outage_depth += 1
        elif kind is FaultKind.ORDERER_OUTAGE_END:
            self._outage_depth = max(0, self._outage_depth - 1)
            self._maybe_restore_orderer()
        elif kind is FaultKind.PARTITION_START:
            self._partition_depth += 1
        elif kind is FaultKind.PARTITION_END:
            self._partition_depth = max(0, self._partition_depth - 1)
            self._maybe_restore_orderer()

    def _maybe_restore_orderer(self) -> None:
        if self.orderer_available() and self.on_orderer_restored is not None:
            hook, self.on_orderer_restored = self.on_orderer_restored, None
            self.sim.post(0.0, hook)

    # ---------------------------------------------------------------- queries
    @property
    def _partitioned(self) -> bool:
        return self._partition_depth > 0

    def peer_available(self, peer_name: str) -> bool:
        """True when ``peer_name`` is up and reachable from the clients."""
        return not self._partitioned and peer_name not in self._down_peers

    def peer_crashed(self, peer_name: str) -> bool:
        """True while ``peer_name`` is down (partitions don't crash peers).

        Block delivery checks this rather than :meth:`peer_available`: a
        partition separates the *clients* from the channel, while the
        orderer-to-peer delivery path stays intra-channel.
        """
        return peer_name in self._down_peers

    def endorsement_factor(self, peer_name: str) -> float:
        """Service-time multiplier of ``peer_name``'s endorsement station."""
        return self.config.endorser_slowdown_factor if peer_name in self._slowed else 1.0

    def orderer_available(self) -> bool:
        """True when the slice's ordering service accepts submissions."""
        return self._outage_depth == 0 and not self._partitioned

    def endorsement_lost(self) -> bool:
        """Draw whether one in-flight endorsement message is silently lost."""
        if self.config.endorsement_loss_rate <= 0:
            return False
        lost = self._loss_rng.random() < self.config.endorsement_loss_rate
        if lost:
            self.lost_endorsements += 1
        return lost

    @property
    def endorsement_timeout(self) -> float:
        """The client-side endorsement collection timeout in seconds."""
        return self.config.endorsement_timeout

    @property
    def arms_endorsement_watchdog(self) -> bool:
        """Whether clients should arm the collection watchdog (see spec)."""
        return self.config.arms_endorsement_watchdog

    # ------------------------------------------------------------- deferred IO
    def defer_block_delivery(self, peer_name: str, deliver: Callable[[], None]) -> None:
        """Queue a block delivery for a peer that is currently down."""
        self._deferred_deliveries.setdefault(peer_name, []).append(deliver)
        self.deferred_deliveries += 1

    def _flush_deliveries(self, peer_name: str) -> None:
        for deliver in self._deferred_deliveries.pop(peer_name, ()):  # in arrival order
            self.sim.post(0.0, deliver)

    # ------------------------------------------------------------- inspection
    def stats(self) -> Dict[str, int]:
        """Injection and loss bookkeeping for run records and reports."""
        summary = dict(sorted(self.injections_applied.items()))
        if self.lost_endorsements:
            summary["lost_endorsements"] = self.lost_endorsements
        if self.deferred_deliveries:
            summary["deferred_block_deliveries"] = self.deferred_deliveries
        return summary
