"""One channel of a deployment: the Fabric slice and the record it produces.

:class:`Channel` builds organizations, peers, the ordering service and client
processes from a :class:`~repro.network.config.NetworkConfig` — one complete
Fabric slice with its own ledger, state, lifecycle bus and RNG stream
family — on the simulator clock of the
:class:`~repro.channels.group.ChannelGroup` that owns it.  The slice does not
run itself: the group calls :meth:`Channel.start_clients` (schedule the client
arrivals), whoever the execution plan names advances the clock, and
:meth:`Channel.collect_record` harvests a :class:`RunRecord`: the slice's
folded :class:`~repro.lifecycle.tally.Tally`, its counters and utilizations,
and — when the chain was recorded — its :class:`Chain`, ready for the
analysis of :mod:`repro.core`.  The one deployment class that drives all of
this — for one channel or many — is
:class:`repro.channels.network.MultiChannelNetwork`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.chaincode.base import Chaincode
from repro.checker.checker import IsolationChecker, IsolationReport
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.controller import FaultController
from repro.faults.schedule import FaultSchedule
from repro.ledger.block import Transaction, TransactionIdAllocator
from repro.ledger.factory import genesis_base
from repro.ledger.kvstore import VersionedKVStore
from repro.ledger.ledger import Ledger
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.recorder import ChainRecorder
from repro.lifecycle.retry import (
    ResubmissionGovernor,
    RetryController,
    create_retry_policy,
)
from repro.lifecycle.tally import ChannelTally, Tally, fold
from repro.network.client_node import ClientNode
from repro.network.config import NetworkConfig
from repro.network.endorsement import build_policy
from repro.network.latency import LatencyModel
from repro.network.orderer import OrderingService
from repro.network.organization import Organization
from repro.network.peer import Peer, ResultTable
from repro.network.validator import BlockValidator
from repro.observability.observer import ObservabilityData
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.stats import mean
from repro.workload.client import ArrivalProcess
from repro.workload.distributions import KeyDistribution
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import TransactionMix

__all__ = ["Channel", "Chain", "RunRecord", "ChannelRecord"]

#: What a :class:`Chain` holds, each readable off a recorded :class:`RunRecord`.
CHAIN_FIELDS = ("ledger", "transactions", "early_aborted", "read_only_skipped")


@dataclass(eq=False)
class Chain:
    """A recorded run's chain: every block and attempt, as the paper parses it.

    Kept only when the run was built with ``record_chain=True`` (see
    :class:`~repro.lifecycle.recorder.ChainRecorder`).  The aggregate of
    several channels holds an empty ``ledger`` (each channel has its own)
    and every channel's attempts.
    """

    ledger: Ledger
    #: Every attempt, by submission time, then client order (the aggregate
    #: of several channels: by submission time, then id).
    transactions: List[Transaction] = field(default_factory=list)
    #: Attempts that ended without reaching a block, in abort order.
    early_aborted: List[Transaction] = field(default_factory=list)
    #: Read-only attempts their client answered locally.
    read_only_skipped: List[Transaction] = field(default_factory=list)


def _chain_field(name: str) -> property:
    def read(record: "RunRecord"):
        if record.chain is None:
            raise AnalysisError(
                f"RunRecord.{name} was not recorded: a run keeps no transaction it is "
                "done with; build it with record_chain=True to keep its chain"
            )
        return getattr(record.chain, name)

    read.__doc__ = f"``chain.{name}`` of a recorded run (raises :class:`AnalysisError` otherwise)."
    return property(read)


@dataclass(eq=False, repr=False)
class RunRecord:
    """Everything recorded during one simulated experiment run.

    ``tally`` is what the metrics read off the run's attempts.  For
    multi-channel runs the aggregate record additionally carries one
    :class:`ChannelRecord` per channel.  The chain — ``ledger``,
    ``transactions``, ``early_aborted``, ``read_only_skipped`` — is there only
    when it was recorded (``chain``); reading it off any other record raises
    :class:`~repro.errors.AnalysisError`, never an empty run.
    :meth:`ledgers` / :meth:`failed_transactions` cover every channel's chain.
    """

    config: NetworkConfig
    variant_name: str
    chaincode_name: str
    workload_name: str
    arrival_rate: float
    duration: float
    seed: int
    tally: Tally = field(default_factory=Tally)
    simulated_end: float = 0.0
    blocks_cut: int = 0
    orderer_utilization: float = 0.0
    mean_validation_utilization: float = 0.0
    mean_endorsement_utilization: float = 0.0
    channel_records: List["ChannelRecord"] = field(default_factory=list)
    #: Lifecycle event counts (event-type value -> count) snapshotted from the
    #: channel's :class:`~repro.lifecycle.events.LifecycleBus` (summed over the
    #: channels in an aggregate record).
    lifecycle_counts: Dict[str, int] = field(default_factory=dict)
    #: Retry subsystem bookkeeping of the run.
    retry_policy: str = "none"
    resubmissions: int = 0
    retries_exhausted: int = 0
    retry_budget_denied: int = 0
    retry_rate_denied: int = 0
    #: Fault-injection bookkeeping (applied injections per kind plus loss and
    #: deferral counters); empty without an enabled fault config.
    fault_injections: Dict[str, int] = field(default_factory=dict)
    #: Spans, sampled time series and metrics summary of the run (``None``
    #: unless ``config.observability`` is enabled; see :mod:`repro.observability`).
    observability: Optional[ObservabilityData] = None
    #: How the run executed: ``"shared-clock"`` (one simulator — the
    #: reference semantics) or ``"sharded"`` (one simulator per independent
    #: channel, bit-identical to shared-clock by contract).
    #: Execution metadata: excluded, along with ``shard_count``, from
    #: bit-identity comparisons.
    execution: str = "shared-clock"
    #: Per-channel isolation verdicts of the run (``None`` unless
    #: ``config.checker`` is enabled; see :mod:`repro.checker`).
    isolation: Optional[IsolationReport] = None
    #: Number of independent shards the run was partitioned into (1 = one
    #: simulator clock).
    shard_count: int = 1
    #: Every block and attempt of the run (``None`` unless recorded).
    chain: Optional[Chain] = None

    ledger = _chain_field("ledger")
    transactions = _chain_field("transactions")
    early_aborted = _chain_field("early_aborted")
    read_only_skipped = _chain_field("read_only_skipped")

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    @property
    def submitted_count(self) -> int:
        """Number of transactions generated by the clients."""
        return self.tally.attempts

    def ledgers(self) -> List[Ledger]:
        """Every ledger of a recorded run: one per channel, or just the single chain."""
        if self.channel_records:
            return [channel.record.ledger for channel in self.channel_records]
        return [self.ledger]

    def failed_transactions(self) -> List[Transaction]:
        """Every failed transaction of the run, in the order the analysis reports.

        Each chain in block order, then that chain's never-on-chain aborts,
        channel by channel.
        """
        records = [channel.record for channel in self.channel_records] or [self]
        return [
            tx
            for record in records
            for tx in (*record.ledger.failed_transactions(), *record.early_aborted)
        ]


@dataclass
class ChannelRecord:
    """One channel's slice of a multi-channel run.

    ``record`` is the channel's own :class:`RunRecord` (tally, utilizations,
    and its chain when recorded) — exactly what a single-channel run would
    have produced for that shard — plus the cross-channel bookkeeping of the
    coordinator.
    """

    index: int
    name: str
    record: RunRecord
    cross_channel_submitted: int = 0
    cross_channel_aborted: int = 0

    @property
    def ledger(self) -> Ledger:
        """The channel's own chain (a recorded run's)."""
        return self.record.ledger


class Channel:
    """One channel of a deployment: a fully wired Fabric slice.

    Construction builds the whole slice from ``config``: organizations and
    peers over one frozen copy-on-write state base, the ordering service, the
    latency model, and — when ``config.faults`` is enabled — the
    :class:`~repro.faults.controller.FaultController` that degrades components
    on the deterministic chaos schedule.  ``sim`` comes from the owning
    group; ``streams`` is the deployment's root stream family.  The slice
    owns its :class:`~repro.lifecycle.events.LifecycleBus` (``bus``): the
    event stream of this chain alone.

    ``label`` is the channel's identity in everything a run emits, decided by
    the group: the channel index, or ``None`` for the sole channel of a
    one-channel deployment, which keeps the historical single-channel bytes —
    root stream family, ``tx-`` ids, unstamped ``tx.channel``, ``orderer``
    queue probe, and ``channel=None`` for the fault controller (which then
    reads the partition windows of channel 0), checker and block times.

    Every slice keeps a :class:`~repro.lifecycle.tally.ChannelTally` on its
    bus (``tally``) and so lets go of each attempt at its last event; with
    ``record_chain`` it also keeps its blocks and attempts (``recorder``).
    """

    def __init__(
        self,
        config: NetworkConfig,
        chaincode: Chaincode,
        variant,
        seed: int,
        sim: Simulator,
        streams: RandomStreams,
        label: Optional[int],
        arrival_share: float,
        retry_governor: Optional[ResubmissionGovernor],
        record_chain: bool = False,
    ) -> None:
        self.variant = variant
        self.config = variant.configure(config.copy())
        self.config.validate()
        self.chaincode = chaincode
        self.seed = seed
        self.label = label
        #: Position in the deployment's topology, and share of its arrival rate.
        self.index = 0 if label is None else label
        self.name = f"channel{self.index}"
        self.arrival_share = arrival_share
        # Ids come from the slice's own sequence: a function of this channel's
        # submission order, never of process history or sibling channels.
        if label is None:
            self.streams = streams
            self.tx_ids = TransactionIdAllocator("tx")
            self.queue_probe = "orderer"
        else:
            self.streams = streams.spawn(f"channel-{label}")
            self.tx_ids = TransactionIdAllocator(f"tx-c{label}")
            self.queue_probe = f"orderer.ch{label}"
        self.sim = sim
        self.ledger = Ledger(keep_blocks=record_chain)
        self.bus = LifecycleBus()
        self.tally = ChannelTally(self.bus, self.ledger, retries=self.config.retry.enabled)
        self.recorder: Optional[ChainRecorder] = ChainRecorder(self.bus) if record_chain else None
        #: Fault controller of this slice (``None`` keeps the no-fault path
        #: bit-identical: no stream is drawn, no event scheduled).
        self.faults: Optional[FaultController] = (
            FaultController(
                sim=self.sim,
                config=self.config.faults,
                loss_rng=self.streams.stream("fault-loss"),
                channel=label,
            )
            if self.config.faults.enabled
            else None
        )

        #: The shared, immutable genesis base.  The canonical validator state
        #: and every endorsing peer layer a copy-on-write overlay over this one
        #: store — as do the other channels and cells of this process.
        self.state_base: VersionedKVStore = genesis_base(
            chaincode, self.config.database, lambda: self.streams.stream("initial-state")
        )
        self.validator = BlockValidator(self.state_base.overlay(), bus=self.bus)
        self.policy = build_policy(self.config.endorsement_policy, self.config.orgs)
        self.latency = LatencyModel(self.config, self.streams.stream("latency"))

        self.organizations: List[Organization] = []
        self.peers: List[Peer] = []
        self._build_topology(self.state_base)

        self.orderer = OrderingService(
            sim=self.sim,
            config=self.config,
            variant=variant,
            peers=self.peers,
            validator=self.validator,
            ledger=self.ledger,
            latency=self.latency,
            rng=self.streams.stream("orderer"),
            bus=self.bus,
            faults=self.faults,
        )
        #: Peers that validate without events (see :meth:`Peer.settle`): no
        #: replica and not the reference peer, whose commits stamp the
        #: block's transactions.  A channel with faults has none: a crash parks
        #: a delivery with the fault controller, and only an event replays it.
        self.committers: List[Peer] = (
            []
            if self.faults is not None
            else [
                peer
                for peer in self.peers
                if peer.store is None and peer is not self.orderer.reference_peer
            ]
        )
        for peer in self.committers:
            peer.arrivals = []
        self.clients: List[ClientNode] = []
        #: Chaincode results every client of this slice shares (see
        #: :class:`~repro.network.peer.ResultTable`): one per channel, because
        #: a state token names a state of this channel only.  It retires a
        #: result once no endorser of the channel can read it again.
        self.results = ResultTable()
        self.results.watch([peer for peer in self.peers if peer.is_endorser])
        #: Streaming isolation checker of this slice (``None`` unless
        #: ``config.checker`` is enabled).  Installed per slice, on the
        #: slice's own bus, so each channel is checked against its own chain
        #: and the verdicts are identical across shared-clock and sharded
        #: execution.
        self.isolation_checker: Optional[IsolationChecker] = (
            IsolationChecker(self.bus, self.config.checker, channel=label)
            if self.config.checker.enabled
            else None
        )
        #: Resubmits this slice's aborted attempts (``None`` without a retry
        #: policy).  Built last, so it hears an abort after the tally, the
        #: recorder and the checker, around ``retry_governor``: the one its
        #: group shares among its channels, so a rate cap is one bucket.
        self.retry_controller: Optional[RetryController] = (
            RetryController(
                sim=self.sim,
                bus=self.bus,
                policy=create_retry_policy(self.config.retry),
                rng=self.streams.stream("retry"),
                governor=retry_governor,
            )
            if self.config.retry.enabled
            else None
        )

    # ---------------------------------------------------------------- topology
    def _build_topology(self, base_store: VersionedKVStore) -> None:
        policy_orgs = self.policy.organizations()
        for org_index in range(self.config.orgs):
            organization = Organization(index=org_index, name=f"org{org_index}")
            for peer_index in range(self.config.peers_per_org):
                is_endorser = peer_index < self.config.endorsers_per_org
                needs_state = is_endorser and (not policy_orgs or org_index in policy_orgs)
                store = base_store.overlay() if needs_state else None
                peer = Peer(
                    sim=self.sim,
                    name=f"peer{peer_index}.org{org_index}",
                    org_index=org_index,
                    config=self.config,
                    variant=self.variant,
                    rng=self.streams.stream(f"peer-{org_index}-{peer_index}"),
                    store=store,
                    is_endorser=is_endorser and store is not None,
                    faults=self.faults,
                    on_late_stamp=self.tally.late_stamp,
                )
                organization.peers.append(peer)
                self.peers.append(peer)
            if not organization.peers:
                raise ConfigurationError(f"organization {org_index} ended up with no peers")
            self.organizations.append(organization)

    # -------------------------------------------------------------------- run
    def start_clients(
        self,
        mix: TransactionMix,
        arrival_rate: float,
        duration: float,
        key_distribution: Optional[KeyDistribution] = None,
        primary_distribution: Optional[KeyDistribution] = None,
        orderer=None,
    ) -> None:
        """Build the client processes and schedule all their arrivals.

        ``arrival_rate`` is this channel's own rate (the deployment validated
        it and ``duration`` before splitting it by :attr:`arrival_share`).
        ``orderer`` defaults to this slice's own ordering service; the group
        passes a :class:`~repro.channels.channel.ChannelGateway` that sits in
        front of it (routing cross-channel transactions through the
        coordinator).  ``primary_distribution``
        optionally overrides the key distribution used for each request's
        *primary* entity draw — the hook that restricts a channel's clients to
        its shard of the key space.
        """
        per_client_rate = arrival_rate / self.config.clients
        self.clients = []
        if self.faults is not None and not self.faults.armed:
            # Materialize the chaos timeline once per deployment, from its own
            # dedicated stream; new episodes start inside the submission window.
            self.faults.arm(
                FaultSchedule.generate(
                    config=self.config.faults,
                    peers=[peer.name for peer in self.peers],
                    endorsers=[peer.name for peer in self.peers if peer.is_endorser],
                    horizon=duration,
                    rng=self.streams.stream("faults"),
                    channel=self.faults.channel,
                )
            )
        for client_index in range(self.config.clients):
            rng = self.streams.stream(f"client-{client_index}")
            workload = WorkloadGenerator(
                chaincode=self.chaincode,
                mix=mix,
                rng=self.streams.stream(f"workload-{client_index}"),
                key_distribution=key_distribution,
                primary_distribution=primary_distribution,
            )
            client = ClientNode(
                sim=self.sim,
                name=f"client{client_index}",
                config=self.config,
                chaincode=self.chaincode,
                workload=workload,
                organizations=self.organizations,
                policy=self.policy,
                orderer=orderer if orderer is not None else self.orderer,
                latency=self.latency,
                arrival=ArrivalProcess(per_client_rate, rng),
                rng=rng,
                bus=self.bus,
                faults=self.faults,
                tx_ids=self.tx_ids,
                results=self.results,
                channel=self.label,
            )
            if self.retry_controller is not None:
                self.retry_controller.register(client)
            self.clients.append(client)
            client.start(duration)

    def settle_committers(self) -> float:
        """Settle every committer's remaining deliveries, once the clock has drained.

        Returns when the last of them completes (0.0 without committers): the
        time the event path's last commit would have left the clock at.
        """
        tail = 0.0
        for peer in self.committers:
            peer.settle(math.inf)
            tail = max(tail, peer.validation_station.free_at)
        return tail

    def station_loads(self) -> dict:
        """Raw service-station accumulators of this slice, for remote merges.

        A channel group's local clock stops at its own last event, but the
        aggregate record reports utilizations over the *deployment-wide*
        horizon.  Utilization is linear in accumulated busy time
        (``min(1, busy / (horizon * servers))`` — see
        :meth:`repro.sim.resources.ServiceStation.utilization`), so the
        merge recomputes it bitwise from these raw pairs and the global
        horizon.  Station order matches :meth:`collect_record`.
        """
        station = self.orderer.consensus_station
        return {
            "orderer": (station.busy_time, station.servers),
            "validation": [
                (peer.validation_station.busy_time, peer.validation_station.servers)
                for peer in self.peers
            ],
            "endorsement": [
                (peer.endorsement_station.busy_time, peer.endorsement_station.servers)
                for peer in self.peers
                if peer.is_endorser
            ],
        }

    def collect_record(
        self, arrival_rate: float, duration: float, workload_name: str = "custom"
    ) -> RunRecord:
        """Harvest the run record once the simulation has drained.

        Closes the slice's tally and folds it into the record's; the closed
        tally stays on :attr:`tally` for a fold across channels.
        """
        chain: Optional[Chain] = None
        if self.recorder is not None:
            transactions, read_only_skipped = self.recorder.in_client_order(
                [client.name for client in self.clients]
            )
            chain = Chain(
                ledger=self.ledger,
                transactions=transactions,
                early_aborted=list(self.recorder.early_aborted),
                read_only_skipped=read_only_skipped,
            )
        horizon = max(duration, self.sim.now)
        endorsing_peers = [peer for peer in self.peers if peer.is_endorser]
        mean_validation = mean(
            peer.validation_station.utilization(horizon) for peer in self.peers
        )
        mean_endorsement = mean(
            peer.endorsement_station.utilization(horizon) for peer in endorsing_peers
        )
        retry_stats = (
            self.retry_controller.stats()
            if self.retry_controller is not None
            else {"resubmissions": 0, "retries_exhausted": 0, "budget_denied": 0, "rate_denied": 0}
        )
        return RunRecord(
            config=self.config,
            variant_name=self.variant.name,
            chaincode_name=self.chaincode.name,
            workload_name=workload_name,
            arrival_rate=arrival_rate,
            duration=duration,
            seed=self.seed,
            tally=fold([self.tally.close()]),
            simulated_end=self.sim.now,
            blocks_cut=self.orderer.blocks_cut,
            orderer_utilization=self.orderer.consensus_station.utilization(horizon),
            mean_validation_utilization=mean_validation,
            mean_endorsement_utilization=mean_endorsement,
            lifecycle_counts=self.bus.counts_by_name(),
            retry_policy=self.config.retry.policy,
            resubmissions=retry_stats["resubmissions"],
            retries_exhausted=retry_stats["retries_exhausted"],
            retry_budget_denied=retry_stats["budget_denied"],
            retry_rate_denied=retry_stats["rate_denied"],
            fault_injections=self.faults.stats() if self.faults is not None else {},
            isolation=(
                self.isolation_checker.report()
                if self.isolation_checker is not None
                else None
            ),
            chain=chain,
        )
