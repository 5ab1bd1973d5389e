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
import weakref
from collections import OrderedDict
from typing import Any, Callable, Dict, Optional, Sequence, Tuple

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
    "SimulationResult",
    "SimulationResults",
]

#: Callback invoked with ``(peer, response)`` once an endorsement completes.
EndorsementCallback = Callable[["Peer", EndorsementResponse], None]
#: Callback invoked with ``(peer, block)`` once a peer has committed a block.
CommitCallback = Callable[["Peer", Block], None]
#: What one simulation computed: ``(read/write set, execution cost, call
#: latencies)``.
SimulationResult = Tuple[ReadWriteSet, float, Dict[str, float]]

#: Calls a :class:`ResultTable` keeps a row for; the oldest row goes first.
RESULT_ROWS = 4096
#: Tokens one row keeps; the oldest (an epoch replicas have left) goes first.
RESULT_TOKENS_PER_ROW = 4


class SimulationResults(dict):
    """One call's simulation results on one channel: a row of a :class:`ResultTable`.

    A ``{state_token: SimulationResult}`` dict, read with one ``get(token)``;
    a result is added through its table's :meth:`ResultTable.keep`, which
    indexes it.
    """

    __slots__ = ("key", "table")

    def __init__(self, key: Optional[Tuple[str, Tuple[Any, ...]]], table: "ResultTable") -> None:
        super().__init__()
        #: The call ``(function, args)``; ``None`` for a row nobody else sees.
        self.key = key
        #: A weak proxy of the table, so that no cycle keeps a dropped
        #: table's rows — or the replicas it reads — waiting for a full
        #: collection.
        self.table = table.proxy


class ResultTable:
    """One channel's chaincode results, shared by every endorsement on it.

    One row per call ``(function, args)``, each a :class:`SimulationResults`
    that :meth:`Peer.receive_proposal` reads with one ``get(token)``.  Tokens
    name states of one channel only (see
    :attr:`~repro.ledger.store.OverlayStateStore.state_token`), hence one
    table per channel.

    A result lives while an endorser can still read it.  The channel hands
    the table its endorsers (:meth:`watch`), and after each of their commits
    :meth:`retire` drops every result whose token is below the
    *floor*, the lowest token any of them can still serve, and every row
    that this empties.  A token an endorser serves never decreases, so a
    result below the floor is never read again.  Both dimensions are also
    FIFO-bounded (:data:`RESULT_ROWS`, :data:`RESULT_TOKENS_PER_ROW`), for a
    floor that stalls: a crashed endorser holds it until it catches up.
    Neither the floor nor the caps are observable: a dropped result is
    recomputed on the next miss, and a pure function recomputes the same one.
    """

    __slots__ = ("rows", "by_token", "endorsers", "proxy", "__weakref__")

    def __init__(self) -> None:
        self.proxy = weakref.proxy(self)
        # Ordered for an O(1) oldest-first eviction: ``next(iter(d))`` on a
        # plain dict scans the slots earlier evictions left empty.
        self.rows: OrderedDict[Tuple[str, Tuple[Any, ...]], SimulationResults] = OrderedDict()
        #: ``{token: {call: row}}``: the rows holding a result at each token,
        #: exactly those of :attr:`rows`, so retiring a token costs one step
        #: per result it held.
        self.by_token: Dict[int, Dict[Tuple[str, Tuple[Any, ...]], SimulationResults]] = {}
        #: ``(endorsement state, replica)`` of each endorser :meth:`retire` reads.
        self.endorsers: Tuple[Tuple[StateStore, StateStore], ...] = ()

    def watch(self, endorsers: Sequence["Peer"]) -> None:
        """:meth:`retire` at the floor of ``endorsers``, after each of their commits.

        Only an endorser's commit moves an overlay's token; a lagged view's
        also moves with the clock, and its results retire at the next one.
        """
        self.endorsers = tuple((peer.endorsement_state(), peer.store) for peer in endorsers)
        for peer in endorsers:
            peer.results = self

    def row(self, function: str, args: Tuple[Any, ...]) -> SimulationResults:
        """The row of ``function(*args)``, created empty on first use.

        Unhashable ``args`` get a fresh row no other transaction sees.
        """
        key = (function, args)
        try:
            row = self.rows.get(key)
        except TypeError:
            return SimulationResults(None, self)
        if row is None:
            row = SimulationResults(key, self)
            self._admit(row)
        return row

    def _admit(self, row: SimulationResults) -> None:
        rows = self.rows
        if len(rows) >= RESULT_ROWS:
            key, oldest = rows.popitem(last=False)
            for token in oldest:
                self._unindex(token, key)
        rows[row.key] = row

    def _unindex(self, token: int, key: Tuple[str, Tuple[Any, ...]]) -> None:
        held = self.by_token[token]
        del held[key]
        if not held:
            del self.by_token[token]

    def keep(self, row: SimulationResults, token: int, result: SimulationResult) -> None:
        """Store what an endorser at ``token`` computed for ``row``'s call.

        A row the table has dropped while its transaction's proposals were
        in flight keeps the result to itself, for that transaction's other
        endorsers.
        """
        key = row.key
        indexed = key is not None and self.rows.get(key) is row
        if len(row) >= RESULT_TOKENS_PER_ROW:
            oldest = next(iter(row))
            del row[oldest]
            if indexed:
                self._unindex(oldest, key)
        row[token] = result
        if indexed:
            self.by_token.setdefault(token, {})[key] = row

    def retire(self) -> None:
        """Drop every result below the endorsers' floor, and every row left empty.

        An endorser's floor is the token its endorsement state serves now.
        A stale lagged view over a store with native rich queries serves
        ``None`` for a while and then the store's token, so there the
        store's token counts; an endorser with neither serves no token again
        and does not count.  Most commits leave some endorser at or below
        the lowest token stored, and so stop at that endorser.
        """
        by_token = self.by_token
        if not by_token:
            return
        lowest = min(by_token)
        floor = None
        for state, store in self.endorsers:
            token = state.state_token
            if token is None:
                token = store.state_token
                if token is None:
                    continue
            if token <= lowest:
                return
            if floor is None or token < floor:
                floor = token
        if floor is None:
            return
        rows = self.rows
        for token in [token for token in by_token if token < floor]:
            for key, row in by_token.pop(token).items():
                del row[token]
                if not row:
                    del rows[key]


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
        on_late_stamp: Optional[Callable[[Transaction], None]] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.org_index = org_index
        self.org_name = f"org{org_index}"
        self.config = config
        self.variant = variant
        self.rng = rng
        self.store = store
        self.is_endorser = is_endorser
        self.faults = faults
        #: Told of an attempt whose first execution came after it had ended
        #: (the channel's :meth:`~repro.lifecycle.tally.ChannelTally.late_stamp`).
        self.on_late_stamp = on_late_stamp
        #: The channel's :class:`ResultTable`, told of each commit of this
        #: endorser (set by :meth:`ResultTable.watch`).
        self.results: Optional[ResultTable] = None
        self.committed_height = 0
        self.endorsements_served = 0
        self.blocks_committed = 0
        self.endorsement_station = ServiceStation(
            sim, name=f"{name}-endorsement", servers=config.timing.endorsement_concurrency
        )
        self.validation_station = ServiceStation(sim, name=f"{name}-validation", servers=1)
        # Read per event, fixed for the peer's lifetime: the endorsement cost
        # terms and the operands of the validation-jitter and snapshot-delay
        # ``uniform`` draws, which are replayed inline (lint rule 5).
        timing = config.timing
        self._endorsement_overhead = timing.endorsement_overhead
        self._resource_factor = config.resource_factor
        self._random = rng.random
        self._jitter_low = -timing.validation_jitter
        self._jitter_span = timing.validation_jitter - self._jitter_low
        self._snapshot_delay = timing.sharp_snapshot_delay
        # Only a replica that endorses from snapshots (FabricSharp) keeps a lagged view.
        lagged = store is not None and variant.endorse_from_snapshot
        self._lagged_view = LaggedStateView(store, sim) if lagged else None
        self._endorse_state = self._lagged_view if lagged else store

    # -------------------------------------------------------------- execution
    def endorsement_state(self) -> StateStore:
        """The state the chaincode executes against during endorsement."""
        if self._endorse_state is None:
            raise SimulationError(f"peer {self.name} is not an endorser and holds no state")
        return self._endorse_state

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
        state = self._endorse_state
        if not self.is_endorser or state is None:
            raise SimulationError(f"peer {self.name} received a proposal but is not an endorser")
        token = state.state_token if simulated is not None else None
        result = simulated.get(token) if token is not None else None
        executed = result is None
        if executed:
            stub = ChaincodeStub(state, token)
            chaincode.execute(stub, tx.function, tx.args)
            result = (stub.rwset, stub.execution_cost, stub.db_call_latency)
            if token is not None:
                simulated.table.keep(simulated, token, result)
        if tx._db_call_latency is None:
            # The transaction takes ownership of its own execution's latency
            # dict (the row only ever hands out copies); another
            # transaction's dict stays with its owner.
            tx._db_call_latency = result[2] if executed else dict(result[2])
            if tx.committed_at is not None and self.on_late_stamp is not None:
                self.on_late_stamp(tx)
        rwset, execution_cost, _latency = result
        service_time = (execution_cost + self._endorsement_overhead) * self._resource_factor
        if self.faults is not None:
            # A slowdown episode (repro.faults) stretches this endorsement;
            # past the client's watchdog it becomes an ENDORSEMENT_TIMEOUT.
            service_time *= self.faults.endorsement_factor(self.name)
        # Positional (peer, org, rwset, completed_at, received_at): one per
        # endorsement, and keywords cost more per call.
        response = EndorsementResponse(self.name, self.org_name, rwset, 0.0, self.sim.now)
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
        jitter_factor = 1.0 + (self._jitter_low + self._jitter_span * self._random())
        service_time = base_time * self._resource_factor * jitter_factor
        if not service_time > 0.0:  # ``max(0.0, service_time)``, NaN included
            service_time = 0.0
        self.validation_station.submit(
            service_time, self._commit_block, block, on_committed, batch
        )

    def _commit_block(
        self, block: Block, on_committed: CommitCallback, batch: Optional[WriteBatch] = None
    ) -> None:
        if self.store is not None:
            self._apply_block(block, batch)
            # Every replica draws its snapshot delay, lagged view or not: the
            # draw keeps its stream where the validation jitter expects it.
            snapshot_delay = self._snapshot_delay * self._random()
            if self._lagged_view is not None:
                self._lagged_view.refresh(visible_after=self.sim.now + snapshot_delay)
        if self.results is not None:
            self.results.retire()
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
