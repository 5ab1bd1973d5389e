"""One channel of a deployment: the Fabric slice and the record it produces.

:class:`Channel` builds organizations, peers, the ordering service and client
processes from a :class:`~repro.network.config.NetworkConfig` — one complete
Fabric slice with its own ledger, state and RNG stream family — on the
simulator clock and lifecycle bus of the
:class:`~repro.channels.group.ChannelGroup` that owns it.  The slice does not
run itself: the group calls :meth:`Channel.start_clients` (schedule the client
arrivals), whoever the execution plan names advances the clock, and
:meth:`Channel.collect_record` harvests a :class:`RunRecord` containing the
ledger and every transaction, ready for the post-experiment analysis of
:mod:`repro.core`.  The one deployment class that drives all of this — for
one channel or many — is
:class:`repro.channels.network.MultiChannelNetwork`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Dict, List, Optional

from repro.chaincode.base import Chaincode
from repro.checker.checker import IsolationChecker, IsolationReport
from repro.errors import AnalysisError, ConfigurationError
from repro.faults.controller import FaultController
from repro.faults.schedule import FaultSchedule
from repro.ledger.block import Transaction, TransactionIdAllocator
from repro.ledger.factory import genesis_base, make_state_store  # noqa: F401 - re-exported
from repro.ledger.kvstore import VersionedKVStore
from repro.ledger.ledger import Ledger
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.retry import (
    ResubmissionGovernor,
    RetryController,
    create_retry_policy,
)
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

__all__ = ["Channel", "RunRecord", "ChannelRecord"]

#: The :class:`RunRecord` fields that hold the chain: every transaction, block
#: and read/write set of the run.  A detached record does not have them.
CHAIN_FIELDS = ("ledger", "transactions", "early_aborted", "read_only_skipped", "channel_records")


@dataclass(eq=False, repr=False)
class RunRecord:
    """Everything recorded during one simulated experiment run.

    For multi-channel runs the aggregate record additionally carries one
    :class:`ChannelRecord` per channel; the aggregate ``ledger`` is then empty
    (each channel has its own chain) and consumers should iterate
    :meth:`ledgers` / :meth:`failed_transactions`, which fall back to the
    single ledger transparently.
    """

    config: NetworkConfig
    variant_name: str
    chaincode_name: str
    workload_name: str
    arrival_rate: float
    duration: float
    seed: int
    ledger: Ledger
    transactions: List[Transaction] = field(default_factory=list)
    early_aborted: List[Transaction] = field(default_factory=list)
    read_only_skipped: List[Transaction] = field(default_factory=list)
    simulated_end: float = 0.0
    blocks_cut: int = 0
    orderer_utilization: float = 0.0
    mean_validation_utilization: float = 0.0
    mean_endorsement_utilization: float = 0.0
    channel_records: List["ChannelRecord"] = field(default_factory=list)
    #: Lifecycle event counts (event-type value -> count) snapshotted from the
    #: deployment's :class:`~repro.lifecycle.events.LifecycleBus`.
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
    #: How the run executed: ``"shared-clock"`` (one simulator — the default
    #: and the reference semantics), ``"sharded"`` (independent channels in
    #: worker processes, bit-identical to shared-clock by contract) or
    #: ``"sharded-conservative"`` (epoch-synchronized shards — deterministic
    #: but *distinct* semantics).  Execution metadata: excluded, along with
    #: ``shard_count``, from bit-identity comparisons.
    execution: str = "shared-clock"
    #: Per-channel isolation verdicts of the run (``None`` unless
    #: ``config.checker`` is enabled; see :mod:`repro.checker`).
    isolation: Optional[IsolationReport] = None
    #: Number of independent shards the run was partitioned into (1 = one
    #: simulator clock).
    shard_count: int = 1

    def detached(self) -> "RunRecord":
        """A copy without the :data:`CHAIN_FIELDS` — what crosses a pool or cache boundary.

        Reading one of them off the copy, directly or through an accessor,
        raises :class:`~repro.errors.AnalysisError`: never an empty run.
        """
        record = object.__new__(RunRecord)
        vars(record).update((k, v) for k, v in vars(self).items() if k not in CHAIN_FIELDS)
        return record

    def __getattr__(self, name: str):
        # Only reached when the attribute is missing: a detached record's chain.
        if name in CHAIN_FIELDS:
            raise AnalysisError(
                f"RunRecord.{name} was left in the process that simulated the cell; "
                "use run_experiment / run_repetition"
            )
        raise AttributeError(name)

    def __eq__(self, other: object) -> bool:
        return type(other) is type(self) and vars(self) == vars(other)

    @property
    def submitted_count(self) -> int:
        """Number of transactions generated by the clients."""
        return len(self.transactions)

    def ledgers(self) -> List[Ledger]:
        """Every ledger of the run: one per channel, or just the single chain."""
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

    ``record`` is the channel's own :class:`RunRecord` (ledger, transactions,
    utilizations) — exactly what a single-channel run would have produced for
    that shard — plus the cross-channel bookkeeping of the coordinator.
    """

    index: int
    name: str
    record: RunRecord
    cross_channel_submitted: int = 0
    cross_channel_aborted: int = 0

    @property
    def ledger(self) -> Ledger:
        """The channel's own chain."""
        return self.record.ledger


class Channel:
    """One channel of a deployment: a fully wired Fabric slice.

    Construction builds the whole slice from ``config``: organizations and
    peers over one frozen copy-on-write state base, the ordering service, the
    latency model, and — when ``config.faults`` is enabled — the
    :class:`~repro.faults.controller.FaultController` that degrades components
    on the deterministic chaos schedule.  ``sim`` and ``bus`` come from the
    owning group; ``streams`` is the deployment's root stream family.

    ``label`` is the channel's identity in everything a run emits, decided by
    the group: the channel index, or ``None`` for the sole channel of a
    one-channel deployment, which keeps the historical single-channel bytes —
    root stream family, ``tx-`` ids, unstamped ``tx.channel``, ``orderer``
    queue probe, and ``channel=None`` for the fault controller (which then
    reads the partition windows of channel 0), checker and block times.
    """

    def __init__(
        self,
        config: NetworkConfig,
        chaincode: Chaincode,
        variant,
        seed: int,
        sim: Simulator,
        streams: RandomStreams,
        bus: LifecycleBus,
        label: Optional[int],
        arrival_share: float,
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
        self.ledger = Ledger()
        self.bus = bus
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
        self.clients: List[ClientNode] = []
        #: Chaincode results every client of this slice shares (see
        #: :class:`~repro.network.peer.ResultTable`): one per channel, because
        #: a state token names a state of this channel only.
        self.results = ResultTable()
        self.retry_controller: Optional[RetryController] = None
        #: Streaming isolation checker of this slice (``None`` unless
        #: ``config.checker`` is enabled).  Installed per slice — on the
        #: slice's *own* bus, never a bus other channels are piped into — so
        #: each channel is checked against its own chain and the verdicts are
        #: identical across shared-clock, sharded and conservative execution.
        self.isolation_checker: Optional[IsolationChecker] = (
            IsolationChecker(self.bus, self.config.checker, channel=label)
            if self.config.checker.enabled
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
        retry_governor: Optional[ResubmissionGovernor] = None,
    ) -> None:
        """Build the client processes and schedule all their arrivals.

        ``arrival_rate`` is this channel's own rate (the deployment validated
        it and ``duration`` before splitting it by :attr:`arrival_share`).
        ``orderer`` defaults to this slice's own ordering service; the group
        passes a :class:`~repro.channels.channel.ChannelGateway` that sits in
        front of it (stamping the channel and routing cross-channel
        transactions through the coordinator).  ``primary_distribution``
        optionally overrides the key distribution used for each request's
        *primary* entity draw — the hook that restricts a channel's clients to
        its shard of the key space.  ``retry_governor`` optionally injects a
        shared resubmission-rate governor (the group passes the one
        deployment-wide instance so the cap is global across channels).
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
        retry = self.config.retry
        if self.retry_controller is not None:
            # A repeated start_clients replaces the client set; the previous
            # controller must stop listening or every abort would schedule a
            # second resubmission on the stale clients.
            self.retry_controller.detach()
            self.retry_controller = None
        if retry.enabled:
            self.retry_controller = RetryController(
                sim=self.sim,
                bus=self.bus,
                policy=create_retry_policy(retry),
                rng=self.streams.stream("retry"),
                governor=retry_governor,
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
            )
            if self.retry_controller is not None:
                self.retry_controller.register(client)
            self.clients.append(client)
            client.start(duration)

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
        """Harvest the run record once the simulation has drained."""
        transactions: List[Transaction] = []
        read_only_skipped: List[Transaction] = []
        for client in self.clients:
            transactions.extend(client.submitted)
            read_only_skipped.extend(client.read_only_skipped)
        transactions.sort(key=attrgetter("submitted_at"))

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
            ledger=self.ledger,
            transactions=transactions,
            early_aborted=list(self.orderer.early_aborted),
            read_only_skipped=read_only_skipped,
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
        )
