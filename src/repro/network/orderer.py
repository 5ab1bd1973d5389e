"""The ordering service: block cutting, consensus and block delivery.

The ordering service batches endorsed transactions into blocks based on three
conditions (paper Section 2, step 4): a fixed number of transactions has been
received (*block size*), a fixed duration has elapsed since the first pending
transaction (*block timeout*), or the total size of the pending transactions
exceeds a limit (*block max bytes*).  Consensus (Kafka in the paper's setup) is
modelled as a per-block plus per-transaction service time on a single FIFO
station; blocks are then delivered to every peer with independent network
latencies, each peer's in block order, as Fabric's per-peer block stream is.

Variant behaviours hook into three points: transaction arrival (FabricSharp's
early aborts), block preparation (Fabric++ / FabricSharp reordering) and the
ordering/validation cost models (Streamchain's per-transaction streaming).
"""

from __future__ import annotations

import functools
import random
from typing import List, Optional

from repro.faults.controller import FaultController

from repro.ledger.block import Block, BlockCutReason, Transaction, ValidationCode
from repro.ledger.ledger import Ledger
from repro.lifecycle.events import LifecycleBus, LifecycleEventType
from repro.network.config import NetworkConfig
from repro.network.latency import LatencyModel
from repro.network.peer import SETTLE_BATCH, Peer
from repro.network.validator import BlockValidator
from repro.sim.engine import Event, Simulator
from repro.sim.resources import ServiceStation


class OrderingService:
    """The (logical) ordering service of the Fabric network.

    Implements the :class:`~repro.lifecycle.stages.OrderingStage` seam of the
    lifecycle pipeline: clients call :meth:`submit`, every early-abort path
    (variant rejection, client-side checks, cross-channel prepare conflicts)
    goes through :meth:`abort_early`, and the service emits ``ORDERED`` /
    ``COMMITTED`` / ``ABORTED`` events into the lifecycle bus.
    """

    def __init__(
        self,
        sim: Simulator,
        config: NetworkConfig,
        variant,
        peers: List[Peer],
        validator: BlockValidator,
        ledger: Ledger,
        latency: LatencyModel,
        rng: random.Random,
        bus: Optional[LifecycleBus] = None,
        faults: Optional[FaultController] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.variant = variant
        self.peers = peers
        self.validator = validator
        self.ledger = ledger
        self.latency = latency
        self.rng = rng
        self.bus = bus
        self.faults = faults
        self.consensus_station = ServiceStation(sim, name="ordering-service", servers=1)
        self.reference_peer = peers[0]
        self.transactions_received = 0
        self.blocks_cut = 0
        self._pending: List[Transaction] = []
        self._pending_bytes = 0
        self._timeout_event: Optional[Event] = None
        self._next_block_number = 1

    # ---------------------------------------------------------------- events
    def abort_early(
        self,
        tx: Transaction,
        code: ValidationCode,
        reason: Optional[str] = None,
    ) -> None:
        """Terminally fail ``tx`` before it ever reaches a block.

        The single early-abort path of the pipeline: FabricSharp's arrival and
        reordering aborts, the client-side endorsement check and the
        cross-channel coordinator's prepare conflicts all end here, so every
        never-on-chain failure is recorded uniformly and emits the same
        ``ABORTED`` lifecycle event that drives client resubmission.
        """
        tx.validation_code = code
        if reason is not None:
            tx.abort_reason = reason
        tx.committed_at = self.sim.now
        bus = self.bus
        if bus is not None:
            bus.emit(LifecycleEventType.ABORTED, tx)

    # ------------------------------------------------------------- submission
    def submit(self, tx: Transaction) -> None:
        """Receive an endorsed transaction from a client (step 3 -> step 4)."""
        if self.faults is not None and not self.faults.orderer_available():
            # Outage window (see repro.faults): the service refuses the
            # submission outright; a retry policy can resubmit it later.
            self.abort_early(tx, ValidationCode.ORDERER_UNAVAILABLE)
            return
        tx.arrived_at_orderer_at = self.sim.now
        self.transactions_received += 1
        if not self.variant.on_transaction_arrival(tx, self):
            self.abort_early(tx, ValidationCode.EARLY_ABORT)
            return
        self._pending.append(tx)
        self._pending_bytes += tx.estimated_size_bytes()
        if len(self._pending) == 1:
            self._timeout_event = self.sim.schedule(
                self.config.block_timeout, self._cut_block, BlockCutReason.BLOCK_TIMEOUT
            )
        if len(self._pending) >= self.config.block_size:
            self._cut_block(BlockCutReason.BLOCK_SIZE)
        elif self._pending_bytes >= self.config.block_max_bytes:
            self._cut_block(BlockCutReason.MAX_BYTES)

    # ----------------------------------------------------------- block cutting
    def _cut_block(self, reason: BlockCutReason) -> None:
        if not self._pending:
            self._timeout_event = None
            return
        if self.faults is not None and not self.faults.orderer_available():
            # The orderer is down: park this cut until service is restored.
            # New submissions abort during the outage, so the pending batch is
            # static and one deferred cut drains all of it.
            if self._timeout_event is not None:
                self._timeout_event.cancel()
                self._timeout_event = None
            self.faults.on_orderer_restored = functools.partial(self._cut_block, reason)
            return
        if self._timeout_event is not None:
            self._timeout_event.cancel()
            self._timeout_event = None
        transactions = self._pending
        self._pending = []
        self._pending_bytes = 0
        if self.config.block_size == 1 and reason is BlockCutReason.BLOCK_SIZE:
            reason = BlockCutReason.STREAMING
        block = Block(
            number=self._next_block_number,
            transactions=transactions,
            cut_reason=reason,
            created_at=self.sim.now,
        )
        self._next_block_number += 1
        self.blocks_cut += 1
        reorder_time = self.variant.prepare_block(block, self)
        service_time = (
            self.variant.ordering_service_time(block, self.config, len(self.peers)) + reorder_time
        ) * self.config.resource_factor
        self.consensus_station.submit(service_time, self._consensus_done, block)

    def flush(self) -> None:
        """Cut whatever is pending (used at the end of an experiment)."""
        self._cut_block(BlockCutReason.FLUSH)

    # -------------------------------------------------------------- consensus
    def _consensus_done(self, block: Block) -> None:
        now = self.sim.now
        block.consensus_completed_at = now
        bus = self.bus
        if bus is None:
            for tx in block.transactions:
                tx.ordered_at = now
        else:
            ordered = LifecycleEventType.ORDERED
            emit = bus.emit
            for tx in block.transactions:
                tx.ordered_at = now
                emit(ordered, tx)
        batch = self.validator.validate_block(block)
        self.ledger.append(block)
        self.variant.after_block_validated(block, self)
        # Per-block values every peer needs: computed once here instead of
        # once per peer (the validation codes feeding the cost are final
        # after after_block_validated).
        base_time = self.variant.validation_service_time(block, self.config)
        block_delivery = self.latency.block_delivery
        random_ = self.rng.random
        delivery_jitter = self.config.timing.delivery_jitter
        post_at = self.sim.post_at
        delivery = (block, self._on_peer_commit, base_time, batch)
        number = block.number
        for peer in self.peers:
            # ``uniform(0.0, delivery_jitter)``, replayed inline (lint rule 5).
            arrival = now + (block_delivery(peer.org_index) + delivery_jitter * random_())
            last = peer.last_arrival  # FIFO: no block overtakes the one before it
            peer.last_arrival = arrival = last if arrival < last else arrival
            arrivals = peer.arrivals
            if arrivals is None:
                post_at(arrival, peer.deliver_block, delivery)
            else:
                # A committer queues the delivery (see Peer.settle), and
                # settles what has arrived once a batch has queued up.
                if len(arrivals) >= SETTLE_BATCH and arrivals[0][0] <= now:
                    peer.settle(now)
                arrivals.append((arrival, base_time, number))

    def _on_peer_commit(self, peer: Peer, block: Block) -> None:
        if peer is self.reference_peer:
            now = self.sim.now
            bus = self.bus
            for tx in block.transactions:
                tx.committed_at = now
                if bus is None:
                    continue
                if tx.is_committed:
                    bus.emit(LifecycleEventType.COMMITTED, tx)
                else:
                    bus.emit(LifecycleEventType.ABORTED, tx)

    # -------------------------------------------------------------- inspection
    @property
    def pending_count(self) -> int:
        """Transactions currently waiting for the next block cut."""
        return len(self._pending)
