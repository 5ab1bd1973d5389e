"""Two-phase prepare/commit for transactions spanning two channels.

Fabric has no atomic cross-channel commit; applications layer an escrow-style
two-phase protocol on top.  The coordinator models exactly that layer:

1. **Prepare (home).**  When a cross-channel transaction arrives, the
   coordinator tries to take *no-wait* locks on every key of its read/write
   set on the home channel.  A conflict with a concurrently preparing
   cross-channel transaction aborts the newcomer immediately
   (``CROSS_CHANNEL_ABORT`` — it never reaches a block, like FabricSharp's
   early aborts).
2. **Prepare (partner).**  The prepare message travels one network hop to the
   partner channel and occupies its ordering service for
   ``timing.cross_channel_prepare`` seconds.  The prepare queues behind the
   partner's block consensus, so a loaded partner stretches the prepare
   window — and with it the lock-hold time, which is how cross-channel aborts
   grow superlinearly with the cross-channel rate.
3. **Commit (home).**  Once the partner's ack returns, the locks are released
   and the transaction enters the home channel's ordinary ordering pipeline;
   MVCC validation on the home ledger remains the final data safety net.

Partner-channel *reads* are deliberately control-flow only: Fabric's own
cross-channel chaincode invocation commits writes on the home channel alone
and treats other-channel reads as unvalidated hints, and the simulation keeps
that semantic.

The protocol is written once; what varies is how a hop between two channels is
*sent*.  On a shared clock both channels sit on one simulator, so a hop is a
``sim.post(delay, ...)``.  Under conservative epoch execution every channel
has its own clock, so the coordinator is given an *outbox* instead: each hop
is appended to it with ``deliver_at = sender's now + delay`` and the epoch
loop (:class:`~repro.channels.network.MultiChannelNetwork`) drains it at
every barrier, injecting the delivery into the target channel's own clock at
``max(natural arrival, barrier time)``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.errors import SimulationError
from repro.ledger.block import Transaction, ValidationCode
from repro.network.network import Channel


class EpochMessage(NamedTuple):
    """One hop between two channel clocks, delivered at the next epoch barrier."""

    deliver_at: float
    target: int
    callback: Callable[..., None]
    args: tuple


class CrossChannelCoordinator:
    """Coordinates the two-phase prepare/commit across channels."""

    def __init__(
        self,
        channels: List[Channel],
        rng: random.Random,
        outbox: Optional[List[EpochMessage]] = None,
    ) -> None:
        if len(channels) < 2:
            raise SimulationError("a cross-channel coordinator needs at least two channels")
        self.channels = channels
        self.rng = rng
        #: ``None`` on a shared clock (hops are posted on the one simulator);
        #: otherwise the list every hop is appended to, which the epoch loop
        #: empties at each barrier.
        self.outbox = outbox
        #: ``(home channel index, key) -> tx_id`` of the transaction holding
        #: the prepare lock.
        self._locks: Dict[Tuple[int, str], str] = {}
        self.prepares_started = 0
        self.committed = 0
        self.aborted = 0

    # -------------------------------------------------------------- protocol
    def submit(self, tx: Transaction, home: Channel) -> None:
        """Phase 1: acquire the prepare locks or abort immediately (no-wait)."""
        if tx.partner_channel is None:
            raise SimulationError(f"transaction {tx.tx_id} has no partner channel")
        partner = self.channels[tx.partner_channel]
        keys = self._lock_keys(tx)
        if any((home.index, key) in self._locks for key in keys):
            self._abort(tx, home, keys)
            return
        for key in keys:
            self._locks[(home.index, key)] = tx.tx_id
        self.prepares_started += 1
        tx.prepare_started_at = home.sim.now
        self._send(home, partner, self._prepare_on_partner, tx, home, partner)

    def _prepare_on_partner(self, tx: Transaction, home: Channel, partner: Channel) -> None:
        """The prepare occupies the partner channel's ordering service."""
        config = partner.config
        service_time = config.timing.cross_channel_prepare * config.resource_factor
        partner.orderer.consensus_station.submit(service_time, self._prepared, tx, home, partner)

    def _prepared(self, tx: Transaction, home: Channel, partner: Channel) -> None:
        """The partner acked; the ack travels back to the coordinator."""
        self._send(partner, home, self._commit_on_home, tx, home)

    def _commit_on_home(self, tx: Transaction, home: Channel) -> None:
        """Phase 2: release the locks and order the transaction at home."""
        self._release(tx, home)
        self.committed += 1
        tx.prepare_completed_at = home.sim.now
        home.orderer.submit(tx)

    def _send(self, sender: Channel, target: Channel, callback, *args) -> None:
        """One network hop from ``sender`` to ``target``; ``callback`` runs there."""
        sim = sender.sim
        delay = sender.latency.one_way(None, None)
        if self.outbox is None:
            sim.post(delay, callback, *args)
        else:
            self.outbox.append(EpochMessage(sim.now + delay, target.index, callback, args))

    # -------------------------------------------------------------- internals
    def _abort(self, tx: Transaction, home: Channel, keys: List[str]) -> None:
        conflicting = sorted(key for key in keys if (home.index, key) in self._locks)
        tx.conflicting_key = conflicting[0] if conflicting else None
        # Routed through the ordering stage's early-abort seam so the abort
        # emits the same ABORTED lifecycle event as every other failure path
        # (and therefore feeds client resubmission like any other abort).
        home.orderer.abort_early(
            tx,
            ValidationCode.CROSS_CHANNEL_ABORT,
            reason=(
                f"cross-channel prepare lock conflict on {home.name}"
                + (f" (key {conflicting[0]!r})" if conflicting else "")
            ),
        )
        self.aborted += 1

    def _release(self, tx: Transaction, home: Channel) -> None:
        for key in self._lock_keys(tx):
            if self._locks.get((home.index, key)) == tx.tx_id:
                del self._locks[(home.index, key)]

    @staticmethod
    def _lock_keys(tx: Transaction) -> List[str]:
        """The keys the prepare phase locks: the transaction's full footprint."""
        if tx.rwset is None:
            return []
        keys = {read.key for read in tx.rwset.all_reads()}
        keys.update(write.key for write in tx.rwset.writes)
        return sorted(keys)

    # ------------------------------------------------------------- inspection
    @property
    def locks_held(self) -> int:
        """Number of keys currently locked by preparing transactions."""
        return len(self._locks)
