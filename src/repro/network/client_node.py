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
from operator import itemgetter
from typing import Callable, List, Optional, Tuple

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
from repro.network.peer import Peer, ResultTable
from repro.sim.engine import Simulator
from repro.workload.client import ArrivalProcess
from repro.workload.generator import WorkloadGenerator

_arrival_time = itemgetter(0)


class EndorsementRound:
    """One attempt's endorsement collection (Section 2, step 3).

    Responses are recorded with the time they reach the client as their
    endorsers send them; the client wakes up once, at the last arrival, instead
    of once per response.  ``open`` goes false when the round completes or a
    fault path (unreachable peer, collection watchdog) aborts the attempt.
    Nothing but the events of its own attempt refers to a round, so it is
    freed with the last of them.
    """

    __slots__ = ("tx", "expected", "arrivals", "open")

    def __init__(self, tx: Transaction, expected: int) -> None:
        self.tx = tx
        self.expected = expected
        #: ``(arrival time, response)`` in send order.
        self.arrivals: List[Tuple[float, EndorsementResponse]] = []
        self.open = True


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
        results: Optional[ResultTable] = None,
        channel: Optional[int] = None,
    ) -> None:
        self.sim = sim
        self.name = name
        #: The label of the client's channel, stamped on every transaction it
        #: builds (``None`` on a one-channel deployment).
        self.channel = channel
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
        #: The channel's chaincode results (see :class:`ResultTable`); a
        #: client built on its own keeps a table of its own.
        self.results = results if results is not None else ResultTable()
        self.resubmitted_count = 0
        # What the per-attempt fan-out draws from ``rng`` is decided here, once:
        # ``choice`` and ``sample`` are replayed draw for draw for the stdlib
        # generator only — a subclass may override the uniform source, a test
        # double anything, so those keep the stdlib calls.
        self._select_orgs = policy.org_selector(rng)
        self._getrandbits = rng.getrandbits if type(rng) is random.Random else None

    # ---------------------------------------------------------------- events
    def _emit(self, event_type: LifecycleEventType, tx: Transaction) -> None:
        bus = self.bus
        if bus is not None:
            bus.emit(event_type, tx)

    # ---------------------------------------------------------------- driving
    def start(self, duration: float) -> int:
        """Schedule all arrivals of this client in ``[0, duration)``.

        The times are drawn now (the stream is shared with endorser
        selection) but queued one at a time, each by its predecessor.
        Returns the number of scheduled transactions.
        """
        arrivals = self.arrival.schedule(duration)
        self.sim.post_series(arrivals, self._submit_next)
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
            channel=self.channel,
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
            channel=self.channel,
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
        self._emit(LifecycleEventType.SUBMITTED, tx)
        endorsing_orgs = self._select_orgs()
        round_ = EndorsementRound(tx, len(endorsing_orgs))
        on_response = functools.partial(self._on_endorsement, round_)
        # The channel's results for this call, shared by all its endorsers and
        # every other transaction of the same call: a peer whose replica holds
        # a state already simulated against reuses that result (see
        # Peer.receive_proposal).
        simulated = self.results.row(tx.function, tx.args)
        organizations = self.organizations
        getrandbits = self._getrandbits
        one_way = self.latency.one_way
        post = self.sim.post
        faults = self.faults
        chaincode = self.chaincode
        for org_index in endorsing_orgs:
            endorsers = organizations[org_index].endorsers
            if getrandbits is None:
                peer = self.rng.choice(endorsers)
            else:
                # ``rng.choice(endorsers)`` without its stdlib frames: CPython's
                # ``_randbelow_with_getrandbits(n)`` draws ``n.bit_length()``
                # bits until the value is below ``n``.
                count = len(endorsers)
                bits = count.bit_length()
                index = getrandbits(bits)
                while index >= count:
                    index = getrandbits(bits)
                peer = endorsers[index]
            delay = one_way(None, peer.org_index)
            if faults is not None:
                if not faults.peer_available(peer.name):
                    # Connection refused: the client learns one network hop
                    # later and gives the transaction up immediately.
                    post(delay, self._abort_round, round_, ValidationCode.PEER_UNAVAILABLE)
                    continue
                if faults.endorsement_lost():
                    continue  # vanishes in transit; the watchdog will fire
            post(delay, peer.receive_proposal, tx, chaincode, on_response, simulated)
        if faults is not None and faults.arms_endorsement_watchdog:
            # Armed only for faults that can lose or stall an endorsement;
            # an outage- or crash-only profile must never reclassify a merely
            # congested endorsement queue as an infrastructure timeout.
            post(
                faults.endorsement_timeout,
                self._abort_round,
                round_,
                ValidationCode.ENDORSEMENT_TIMEOUT,
            )

    def _abort_round(self, round_: EndorsementRound, code: ValidationCode) -> None:
        """A proposal hit a down peer, or the collection watchdog fired.

        Aborts the attempt unless its round is already resolved.  The attempt
        keeps the responses that had reached the client: strictly earlier
        arrivals only, because both fault events are posted inside
        :meth:`submit_transaction` and so run before any response that arrives
        at the very same instant.
        """
        if not round_.open:
            return
        round_.open = False
        now = self.sim.now
        arrived = [
            response
            for arrival, response in sorted(round_.arrivals, key=_arrival_time)
            if arrival < now
        ]
        if arrived:
            round_.tx.endorsements = arrived
        self.orderer.abort_early(round_.tx, code)

    # ------------------------------------------------------------ endorsement
    def _on_endorsement(
        self, round_: EndorsementRound, peer: Peer, response: EndorsementResponse
    ) -> None:
        """A peer finished endorsing; account for the response network latency.

        The latency is drawn here, at the station-completion event, even for a
        round a fault path has closed: the channel's one ``latency`` stream
        also feeds proposal legs, the client-to-orderer leg and block delivery,
        so a skipped or moved draw would shift every later latency of the run.
        """
        delay = self.latency.one_way(peer.org_index, None)
        if not round_.open:
            return
        arrivals = round_.arrivals
        arrivals.append((self.sim.now + delay, response))
        if len(arrivals) == round_.expected:
            # The last response is on its way: one wake-up, at the last
            # arrival.  The stable sort by time keeps send order among equal
            # arrival times, which is the (time, sequence) order one event per
            # response would have been dispatched in.
            arrivals.sort(key=_arrival_time)
            self.sim.post_at(arrivals[-1][0], self._complete_round, (round_,))

    def _complete_round(self, round_: EndorsementRound) -> None:
        """Execution phase, step 3: collect responses and submit for ordering."""
        if not round_.open:
            # A fault path (timeout or unreachable peer) aborted the attempt
            # between the last send and the last arrival.
            return
        round_.open = False
        tx = round_.tx
        endorsements = tx.endorsements = [response for _, response in round_.arrivals]
        tx.endorsement_completed_at = self.sim.now
        # Every response that simulated the same result keeps a reference to
        # the first one's read/write set instead of its own value-equal copy
        # (seven of eight on cluster C2): read/write sets are written by the
        # ChaincodeStub during execution and never after, so sharing is not
        # observable, and the run retains one per transaction instead of one
        # per endorser.  Equation 1 only needs the sets that differ — an equal
        # copy adds no (key, version) observation — and one set is one
        # execution against one state, which cannot contradict itself.
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
        tx.endorsement_mismatch = len(distinct) > 1 and not read_sets_consistent(distinct)
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
