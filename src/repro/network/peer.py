"""Peers: endorsement, validation and commit (paper Section 2, Figure 1).

Endorsing peers simulate transactions against their *local* replica of the
world state during the execution phase; every peer then validates and commits
the blocks delivered by the ordering service.  Because each peer applies
blocks at its own pace, the world-state replicas are transiently inconsistent
— the root cause of endorsement policy failures (Section 3.2.1).

A replica is a copy-on-write :class:`~repro.ledger.store.OverlayStateStore`
over the deployment's shared frozen genesis base: each peer only stores its
own committed divergence, and block commits are applied as atomic
:class:`~repro.ledger.store.WriteBatch` es (one commit epoch per block).
FabricSharp's lagging snapshot endorsement is served by
:class:`~repro.ledger.store.LaggedStateView` straight from the store's epoch
journal.
"""

from __future__ import annotations

import functools
import random
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Tuple

from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode
from repro.errors import SimulationError
from repro.faults.controller import FaultController
from repro.ledger.block import Block, EndorsementResponse, Transaction, ValidationCode
from repro.ledger.kvstore import Version
from repro.ledger.rwset import ReadWriteSet
from repro.ledger.store import LaggedStateView, MutableStateStore, StateStore, WriteBatch
from repro.network.config import NetworkConfig
from repro.sim.engine import Simulator
from repro.sim.resources import ServiceStation

__all__ = [
    "Peer",
    "LaggedStateView",
    "EndorsementCallback",
    "CommitCallback",
    "ResultTable",
    "SimulationResults",
]

#: Callback invoked with ``(peer, response)`` once an endorsement completes.
EndorsementCallback = Callable[["Peer", EndorsementResponse], None]
#: One call's simulation results on one channel, keyed by the ``state_token``
#: of the state they were simulated against: ``(read/write set, execution
#: cost, call latencies)``.  A row of a :class:`ResultTable`.
SimulationResults = Dict[int, Tuple[ReadWriteSet, float, Dict[str, float]]]
#: Callback invoked with ``(peer, block)`` once a peer has committed a block.
CommitCallback = Callable[["Peer", Block], None]

#: Calls a :class:`ResultTable` keeps a row for; the oldest row goes first.
RESULT_ROWS = 4096
#: Tokens one row keeps; the oldest (an epoch replicas have left) goes first.
RESULT_TOKENS_PER_ROW = 4


class ResultTable:
    """One channel's chaincode results, shared by every endorsement on it.

    One row per call ``(function, args)``, each a :data:`SimulationResults`
    dict that :meth:`Peer.receive_proposal` reads with one ``get(token)``.
    Both dimensions are FIFO-bounded (:data:`RESULT_ROWS`,
    :data:`RESULT_TOKENS_PER_ROW`); an evicted result is recomputed on the
    next miss, and a pure function recomputes the same one, so eviction is
    not observable.  Tokens name states of one channel only (see
    :attr:`~repro.ledger.store.OverlayStateStore.state_token`), hence one
    table per channel.
    """

    __slots__ = ("rows",)

    def __init__(self) -> None:
        # Ordered for an O(1) oldest-first eviction: ``next(iter(d))`` on a
        # plain dict scans the slots earlier evictions left empty.
        self.rows: OrderedDict[Tuple[str, Tuple[Any, ...]], SimulationResults] = OrderedDict()

    def row(self, function: str, args: Tuple[Any, ...]) -> SimulationResults:
        """The row of ``function(*args)``, created empty on first use.

        Unhashable ``args`` get a fresh row no other transaction sees.
        """
        rows = self.rows
        key = (function, args)
        try:
            row = rows.get(key)
        except TypeError:
            return {}
        if row is None:
            if len(rows) >= RESULT_ROWS:
                rows.popitem(last=False)
            row = rows[key] = {}
        return row


class Peer:
    """One Fabric peer: optionally an endorser, always a validator/committer."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        org_index: int,
        config: NetworkConfig,
        variant,
        rng: random.Random,
        store: Optional[MutableStateStore] = None,
        is_endorser: bool = False,
        faults: Optional[FaultController] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.org_index = org_index
        self.org_name = f"org{org_index}"
        self.config = config
        self.timing = config.timing
        self.variant = variant
        self.rng = rng
        self.store = store
        self.is_endorser = is_endorser
        self.faults = faults
        self.committed_height = 0
        self.endorsements_served = 0
        self.blocks_committed = 0
        self.endorsement_station = ServiceStation(
            sim, name=f"{name}-endorsement", servers=config.timing.endorsement_concurrency
        )
        self.validation_station = ServiceStation(sim, name=f"{name}-validation", servers=1)
        self._lagged_view = LaggedStateView(store, sim) if store is not None else None
        #: Lazily cached :meth:`endorsement_state` result — the store, the
        #: lagged view and the variant's snapshot flag are all fixed for the
        #: peer's lifetime, so the per-proposal resolution is pure overhead.
        self._endorse_state: Optional[StateStore] = None

    # -------------------------------------------------------------- execution
    def endorsement_state(self) -> StateStore:
        """The state the chaincode executes against during endorsement."""
        if self.store is None:
            raise SimulationError(f"peer {self.name} is not an endorser and holds no state")
        if self.variant.endorse_from_snapshot and self._lagged_view is not None:
            return self._lagged_view
        return self.store

    def receive_proposal(
        self,
        tx: Transaction,
        chaincode: Chaincode,
        on_response: EndorsementCallback,
        simulated: Optional[SimulationResults] = None,
    ) -> None:
        """Execution phase, steps 1-2: simulate the transaction and respond.

        ``simulated`` is the channel's :class:`ResultTable` row for this
        call, shared by every endorsement of ``(tx.function, tx.args)`` on the
        channel — this transaction's other endorsers and every other
        transaction's: a chaincode function is a pure function of ``(state,
        args)``, so an endorser whose replica holds a state already simulated
        against for this call (equal ``state_token``) takes that read/write
        set, execution cost and call latencies instead of running the
        chaincode again.  Everything that is this peer's own — arrival time,
        fault factor, station queueing — is computed here as ever.  A ``None``
        token, and a caller without a row, always execute.
        """
        if not self.is_endorser:
            raise SimulationError(f"peer {self.name} received a proposal but is not an endorser")
        state = self._endorse_state
        if state is None:
            state = self._endorse_state = self.endorsement_state()
        token = state.state_token if simulated is not None else None
        result = simulated.get(token) if token is not None else None
        if result is None:
            stub = ChaincodeStub(state)
            chaincode.execute(stub, tx.function, tx.args)
            if tx._db_call_latency is None:
                # The transaction takes ownership of the stub's latency dict;
                # the row only ever hands out copies of it.
                tx._db_call_latency = stub.db_call_latency
            result = (stub.rwset, stub.execution_cost, stub.db_call_latency)
            if token is not None:
                if len(simulated) >= RESULT_TOKENS_PER_ROW:
                    del simulated[next(iter(simulated))]
                simulated[token] = result
        elif tx._db_call_latency is None:
            # Another transaction's execution: its dict stays with its owner.
            tx._db_call_latency = dict(result[2])
        rwset, execution_cost, _latency = result
        service_time = (
            execution_cost + self.timing.endorsement_overhead
        ) * self.config.resource_factor
        if self.faults is not None:
            # A slowdown episode (repro.faults) stretches this endorsement;
            # past the client's watchdog it becomes an ENDORSEMENT_TIMEOUT.
            service_time *= self.faults.endorsement_factor(self.name)
        response = EndorsementResponse(
            peer_name=self.name,
            org_name=self.org_name,
            rwset=rwset,
            completed_at=0.0,
            received_at=self.sim.now,
        )
        self.endorsements_served += 1
        # ``submit`` returns the exact float the clock will hold when it runs
        # the callback, so the response is complete before anyone can see it.
        response.completed_at = self.endorsement_station.submit(
            service_time, on_response, self, response
        )

    # ------------------------------------------------------------- validation
    def deliver_block(
        self,
        block: Block,
        on_committed: CommitCallback,
        base_time: Optional[float] = None,
        batch: Optional[WriteBatch] = None,
    ) -> None:
        """Validation phase, steps 6-8: validate, commit and update the state.

        ``base_time`` and ``batch`` are per-block values the ordering service
        computes once and shares with every peer: the variant's validation
        service time (identical across peers — only the jitter differs) and
        the canonical validator's staged write batch (read-only after
        validation).  Both are recomputed locally when absent so direct
        callers and old call sites keep working.

        A crashed peer (see :mod:`repro.faults`) cannot receive blocks; the
        delivery is parked with the fault controller and replayed in arrival
        order at recovery — which is exactly the catch-up lag that widens the
        world-state inconsistency window and with it the endorsement policy
        failure rate.
        """
        if self.faults is not None and self.faults.peer_crashed(self.name):
            self.faults.defer_block_delivery(
                self.name,
                functools.partial(self.deliver_block, block, on_committed, base_time, batch),
            )
            return
        if base_time is None:
            base_time = self.variant.validation_service_time(block, self.config)
        jitter = self.timing.validation_jitter
        jitter_factor = 1.0 + self.rng.uniform(-jitter, jitter)
        service_time = max(0.0, base_time * self.config.resource_factor * jitter_factor)
        self.validation_station.submit(
            service_time, self._commit_block, block, on_committed, batch
        )

    def _commit_block(
        self, block: Block, on_committed: CommitCallback, batch: Optional[WriteBatch] = None
    ) -> None:
        if self.store is not None:
            self._apply_block(block, batch)
            if self._lagged_view is not None:
                snapshot_delay = self.rng.uniform(0.0, self.timing.sharp_snapshot_delay)
                self._lagged_view.refresh(visible_after=self.sim.now + snapshot_delay)
        self.committed_height = block.number
        self.blocks_committed += 1
        on_committed(self, block)

    def _apply_block(self, block: Block, batch: Optional[WriteBatch] = None) -> None:
        """Apply the write sets of the valid transactions as one atomic batch.

        When the ordering service shares the canonical validator's batch it is
        applied directly (its staged entries are identical to the rebuild
        below and never mutated by any store).  The batch commit bumps the
        store's epoch and journals the changed keys' pre-images — which is
        exactly what the lagged snapshot view then pins in
        :meth:`_commit_block`.
        """
        assert self.store is not None
        if batch is None:
            batch = WriteBatch(block.number)
            for index, tx in enumerate(block.transactions):
                if tx.validation_code is not ValidationCode.VALID or tx.rwset is None:
                    continue
                version = Version(block_number=block.number, tx_number=index)
                for write in tx.rwset.writes:
                    if write.is_delete:
                        batch.delete(write.key)
                    else:
                        batch.put(write.key, write.value, version)
        self.store.apply_batch(batch)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        role = "endorser" if self.is_endorser else "committer"
        return f"Peer(name={self.name!r}, org={self.org_index}, role={role})"
