"""Client processes: drive the Execute-Order-Validate flow (steps 1, 3).

Clients submit transactions open-loop at their share of the configured arrival
rate.  For each transaction a client selects a minimal set of organizations
that satisfies the endorsement policy, sends the proposal to one endorsing peer
of each selected organization, collects the responses, optionally checks their
consistency (Section 2, step 3 — the mismatch is always recorded so that the
validator can later flag the endorsement policy failure), and forwards the
endorsed transaction to the ordering service.

The client is the submission stage of the lifecycle pipeline: it emits
``SUBMITTED`` / ``ENDORSED`` / ``ENDORSEMENT_FAILED`` (and ``COMMITTED`` for
locally answered read-only queries) into the
:class:`~repro.lifecycle.events.LifecycleBus`, and exposes :meth:`resubmit` —
the entry point through which the retry subsystem
(:mod:`repro.lifecycle.retry`) re-injects failed transactions as fresh
attempts of the same logical request.
"""

from __future__ import annotations

import functools
import random
from typing import Callable, Dict, List, Optional

from repro.chaincode.base import Chaincode
from repro.faults.controller import FaultController
from repro.ledger.block import EndorsementResponse, Transaction, ValidationCode
from repro.ledger.rwset import read_sets_consistent
from repro.lifecycle.events import LifecycleBus, LifecycleEventType
from repro.lifecycle.stages import OrderingStage
from repro.network.config import NetworkConfig
from repro.network.endorsement import PolicyNode
from repro.network.latency import LatencyModel
from repro.network.organization import Organization
from repro.network.peer import Peer, SimulationResults
from repro.sim.engine import Simulator
from repro.workload.client import ArrivalProcess
from repro.workload.generator import WorkloadGenerator


class ClientNode:
    """One Caliper-like client process."""

    def __init__(
        self,
        sim: Simulator,
        name: str,
        config: NetworkConfig,
        chaincode: Chaincode,
        workload: WorkloadGenerator,
        organizations: List[Organization],
        policy: PolicyNode,
        orderer: OrderingStage,
        latency: LatencyModel,
        arrival: ArrivalProcess,
        rng: random.Random,
        tx_ids: Callable[[], str],
        bus: Optional[LifecycleBus] = None,
        faults: Optional[FaultController] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        self.config = config
        self.chaincode = chaincode
        self.workload = workload
        self.organizations = organizations
        self.policy = policy
        self.orderer = orderer
        self.latency = latency
        self.arrival = arrival
        self.rng = rng
        self.bus = bus
        self.faults = faults
        #: Transaction-id source: the channel slice's own
        #: :class:`~repro.ledger.block.TransactionIdAllocator`.
        self.tx_ids = tx_ids
        self.submitted: List[Transaction] = []
        self.read_only_skipped: List[Transaction] = []
        self.resubmitted_count = 0
        self._expected_responses: Dict[str, int] = {}

    # ---------------------------------------------------------------- events
    def _emit(self, event_type: LifecycleEventType, tx: Transaction) -> None:
        bus = self.bus
        if bus is not None:
            bus.emit_tx(event_type, self.sim.now, tx)

    # ---------------------------------------------------------------- driving
    def start(self, duration: float) -> int:
        """Schedule all arrivals of this client in ``[0, duration)``.

        Returns the number of scheduled transactions.
        """
        arrivals = self.arrival.schedule(duration)
        post_at = self.sim.post_at
        submit_next = self._submit_next
        for arrival_time in arrivals:
            post_at(arrival_time, submit_next)
        return len(arrivals)

    def _submit_next(self) -> None:
        """Execution phase, step 1: send a new transaction to the endorsers."""
        request = self.workload.next_request()
        tx = Transaction(
            tx_id=self.tx_ids(),
            client_name=self.name,
            chaincode_name=self.chaincode.name,
            function=request.function,
            args=request.args,
            read_only=request.read_only,
            submitted_at=self.sim.now,
        )
        self.submit_transaction(tx)

    def resubmit(self, failed: Transaction) -> Transaction:
        """Resubmit a failed transaction as a fresh attempt (retry subsystem).

        The new attempt re-invokes the same chaincode function with the same
        arguments but is a brand-new transaction to the network: new id, fresh
        endorsement, fresh read set — exactly how a real client reacts to a
        failure notification.
        """
        tx = Transaction(
            tx_id=self.tx_ids(),
            client_name=self.name,
            chaincode_name=failed.chaincode_name,
            function=failed.function,
            args=failed.args,
            read_only=failed.read_only,
            submitted_at=self.sim.now,
            attempt=failed.attempt + 1,
            origin_tx_id=failed.origin_id,
        )
        self.resubmitted_count += 1
        self.submit_transaction(tx)
        return tx

    def submit_transaction(self, tx: Transaction) -> None:
        """Send ``tx`` to one endorsing peer of each selected organization.

        With fault injection enabled (:mod:`repro.faults`) three degraded
        outcomes exist: a proposal to a crashed or partitioned peer fails
        fast after the network delay (``PEER_UNAVAILABLE``), a proposal can
        be silently lost in transit, and an endorsement-collection watchdog
        times the transaction out (``ENDORSEMENT_TIMEOUT``) when responses
        are lost or stalled endorsers exceed the deadline.
        """
        self.submitted.append(tx)
        self._emit(LifecycleEventType.SUBMITTED, tx)
        rng = self.rng
        endorsing_orgs = sorted(self.policy.select_orgs(rng))
        self._expected_responses[tx.tx_id] = len(endorsing_orgs)
        on_response = functools.partial(self._on_endorsement, tx)
        # One result table per transaction, shared by all its endorsers: a
        # peer whose replica holds a state another already simulated against
        # reuses that result (see Peer.receive_proposal).
        simulated: SimulationResults = {}
        organizations = self.organizations
        one_way = self.latency.one_way
        post = self.sim.post
        faults = self.faults
        chaincode = self.chaincode
        for org_index in endorsing_orgs:
            peer = organizations[org_index].pick_endorser(rng)
            delay = one_way(None, peer.org_index)
            if faults is not None:
                if not faults.peer_available(peer.name):
                    # Connection refused: the client learns one network hop
                    # later and gives the transaction up immediately.
                    post(delay, self._on_peer_unreachable, tx)
                    continue
                if faults.endorsement_lost():
                    continue  # vanishes in transit; the watchdog will fire
            post(delay, peer.receive_proposal, tx, chaincode, on_response, simulated)
        if self.faults is not None and self.faults.arms_endorsement_watchdog:
            # Armed only for faults that can lose or stall an endorsement;
            # an outage- or crash-only profile must never reclassify a merely
            # congested endorsement queue as an infrastructure timeout.
            self.sim.post(self.faults.endorsement_timeout, self._endorsement_timeout, tx)

    def _on_peer_unreachable(self, tx: Transaction) -> None:
        """A proposal hit a down peer; fail fast unless already resolved."""
        if self._expected_responses.pop(tx.tx_id, None) is not None:
            self.orderer.abort_early(tx, ValidationCode.PEER_UNAVAILABLE)

    def _endorsement_timeout(self, tx: Transaction) -> None:
        """The endorsement-collection watchdog fired; abort if still pending."""
        if self._expected_responses.pop(tx.tx_id, None) is not None:
            self.orderer.abort_early(tx, ValidationCode.ENDORSEMENT_TIMEOUT)

    # ------------------------------------------------------------ endorsement
    def _on_endorsement(self, tx: Transaction, peer: Peer, response: EndorsementResponse) -> None:
        """A peer finished endorsing; account for the response network latency."""
        delay = self.latency.one_way(peer.org_index, None)
        self.sim.post(delay, self._collect_response, tx, response)

    def _collect_response(self, tx: Transaction, response: EndorsementResponse) -> None:
        """Execution phase, step 3: collect responses and submit for ordering."""
        if tx.tx_id not in self._expected_responses:
            # The transaction was already resolved — a fault path (timeout or
            # unreachable peer) aborted it while this response was in flight.
            return
        endorsements = tx.endorsements
        endorsements.append(response)
        expected = self._expected_responses.get(tx.tx_id, 0)
        if len(endorsements) < expected:
            return
        self._expected_responses.pop(tx.tx_id, None)
        tx.endorsement_completed_at = self.sim.now
        # Every response that simulated the same result keeps a reference to
        # the first one's read/write set instead of its own value-equal copy
        # (seven of eight on cluster C2): read/write sets are written by the
        # ChaincodeStub during execution and never after, so sharing is not
        # observable, and the run retains one per transaction instead of one
        # per endorser.  Equation 1 only needs the sets that differ — an equal
        # copy adds no (key, version) observation.
        rwset = tx.rwset = endorsements[0].rwset
        distinct = [rwset]
        for endorsement in endorsements:
            other = endorsement.rwset
            if other is rwset:
                continue
            if other == rwset:
                endorsement.rwset = rwset
            else:
                distinct.append(other)
        tx.endorsement_mismatch = not read_sets_consistent(distinct)
        self._emit(
            LifecycleEventType.ENDORSEMENT_FAILED
            if tx.endorsement_mismatch
            else LifecycleEventType.ENDORSED,
            tx,
        )
        if tx.read_only and not self.config.submit_read_only:
            # Client-design recommendation (Section 6.1): the query result is
            # already known after the execution phase, so the transaction is
            # not submitted for ordering and validation.
            tx.committed_at = self.sim.now
            self.read_only_skipped.append(tx)
            self._emit(LifecycleEventType.COMMITTED, tx)
            return
        if self.config.client_side_check and tx.endorsement_mismatch:
            # Optional early check of step 3: the client detects the mismatch
            # and drops the doomed transaction instead of submitting it, saving
            # ordering and validation work.  It still counts as a failure.
            self.orderer.abort_early(tx, ValidationCode.ENDORSEMENT_POLICY_FAILURE)
            return
        delay = self.config.timing.client_processing + self.latency.one_way(None, None)
        self.sim.post(delay, self.orderer.submit, tx)
