"""Network configuration: the control variables of the study (paper Table 3).

:class:`NetworkConfig` collects every parameter varied in the experiments —
cluster preset (C1/C2), block size, block timeout, database type, endorsement
policy, number of organizations and peers, induced network delay — plus a
:class:`TimingProfile` holding the latency constants of the simulation model.
"""

from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple

from repro.checker.config import CheckerConfig
from repro.errors import ConfigurationError
from repro.faults.spec import FaultConfig
from repro.ledger.kvstore import COUCHDB_PROFILE, LEVELDB_PROFILE, DatabaseLatencyProfile
from repro.lifecycle.retry import RetryConfig
from repro.observability.config import ObservabilityConfig
from repro.sim.shard import ExecutionConfig


class DatabaseType(enum.Enum):
    """State database backend (paper Section 4.5, "Database Type")."""

    LEVELDB = "leveldb"
    COUCHDB = "couchdb"

    @classmethod
    def parse(cls, value: "DatabaseType | str") -> "DatabaseType":
        """Accept either the enum or its lowercase string name."""
        if isinstance(value, cls):
            return value
        try:
            return cls(str(value).lower())
        except ValueError as exc:
            raise ConfigurationError(
                f"unknown database type {value!r}; expected 'leveldb' or 'couchdb'"
            ) from exc

    @property
    def profile(self) -> DatabaseLatencyProfile:
        """The per-operation latency profile of this backend."""
        return COUCHDB_PROFILE if self is DatabaseType.COUCHDB else LEVELDB_PROFILE


@dataclass(frozen=True)
class ClusterPreset:
    """One of the two Kubernetes cluster setups of paper Section 4.2."""

    name: str
    worker_nodes: int
    orgs: int
    peers_per_org: int
    clients: int
    #: Multiplier applied to peer and orderer service times; the smaller C1
    #: cluster co-locates peers and orderers on three worker nodes and is
    #: therefore more contended than the 32-worker C2 cluster.
    resource_factor: float


#: C1: 3 workers, 4 peers (2 orgs x 2 peers), 3 orderers, 5 clients.
#: C2: 32 workers, 32 peers (8 orgs x 4 peers), 3 orderers, 25 clients.
CLUSTER_PRESETS = {
    "C1": ClusterPreset(
        name="C1", worker_nodes=3, orgs=2, peers_per_org=2, clients=5, resource_factor=1.2
    ),
    "C2": ClusterPreset(
        name="C2", worker_nodes=32, orgs=8, peers_per_org=4, clients=25, resource_factor=1.0
    ),
}


@dataclass(frozen=True)
class TimingProfile:
    """Latency constants of the simulation model (all values in seconds).

    The database-operation latencies live in the
    :class:`~repro.ledger.kvstore.DatabaseLatencyProfile`; this profile covers
    networking, signing, ordering, validation and the variant-specific
    overheads.  Values are calibrated so that the default configuration
    reproduces the latency/throughput envelope reported in the paper
    (~0.5-2 s end-to-end latency, ~200 tps sustainable throughput).
    """

    # Networking -----------------------------------------------------------
    net_one_way: float = 0.001
    net_jitter: float = 0.0005
    client_processing: float = 0.001

    # Execution phase -------------------------------------------------------
    endorsement_overhead: float = 0.002
    endorsement_concurrency: int = 16

    # Ordering phase --------------------------------------------------------
    orderer_per_block: float = 0.09
    orderer_per_tx: float = 0.0006
    orderer_broadcast_per_peer: float = 0.0003

    # Validation phase ------------------------------------------------------
    validation_per_block: float = 0.04
    vscc_per_signature: float = 0.0004
    vscc_per_subpolicy: float = 0.002
    validation_jitter: float = 0.10
    delivery_jitter: float = 0.004

    # Streamchain (Section 5.3) ----------------------------------------------
    stream_orderer_per_tx: float = 0.005
    stream_broadcast_per_peer: float = 0.0004
    stream_validation_per_tx: float = 0.002
    ramdisk_factor: float = 0.3
    no_ramdisk_penalty: float = 4.0

    # Multi-channel deployments (extension beyond the paper) -----------------
    #: Service time one cross-channel prepare occupies on the partner
    #: channel's ordering service (the escrow handshake of the two-phase
    #: prepare/commit; it queues behind that channel's block consensus, so a
    #: loaded partner channel stretches the prepare window).
    cross_channel_prepare: float = 0.003

    # Fabric++ / FabricSharp reordering (Sections 5.2 and 5.4) ---------------
    reorder_per_tx: float = 0.0002
    reorder_per_edge: float = 0.0002
    #: Building the conflict graph touches every key of every read set, so the
    #: reordering cost explodes for chaincodes with large range queries (DV,
    #: SCM) — the effect behind the Fabric++ latencies of Section 5.2.3.
    reorder_per_read_key: float = 0.0005
    early_abort_check_per_key: float = 0.00005
    #: FabricSharp executes against block snapshots; a peer's endorsement view
    #: catches up with a freshly committed block only after a random delay of
    #: up to this many seconds, which is the staleness the paper blames for the
    #: extra endorsement policy failures (Section 5.4.1).
    sharp_snapshot_delay: float = 0.15


#: The key-placement policies understood by the channel subsystem.
PLACEMENT_POLICIES = ("hash", "range", "hot")


@dataclass
class NetworkConfig:
    """Control variables of one experiment (paper Table 3).

    Unset fields (``None``) default to the values of the selected cluster
    preset; ``validate()`` is called by
    :class:`~repro.channels.network.MultiChannelNetwork` (and again by every
    :class:`~repro.network.network.Channel` on its variant-configured copy)
    before the network is built.
    """

    cluster: str = "C1"
    orgs: Optional[int] = None
    peers_per_org: Optional[int] = None
    endorsers_per_org: int = 1
    clients: Optional[int] = None
    orderers: int = 3
    database: DatabaseType | str = DatabaseType.COUCHDB
    block_size: int = 100
    block_timeout: float = 2.0
    block_max_bytes: int = 2 * 1024 * 1024
    endorsement_policy: str = "P0"
    delayed_orgs: Tuple[int, ...] = ()
    induced_delay: float = 0.1
    induced_delay_jitter: float = 0.01
    use_ram_disk: bool = True
    submit_read_only: bool = True
    client_side_check: bool = False
    resource_factor: Optional[float] = None
    #: Number of channels the network is sharded into.  ``1`` (the default)
    #: is the paper's single-channel setup; higher counts partition the key
    #: space across independent ledgers/ordering services (see
    #: :mod:`repro.channels`).
    channels: int = 1
    #: How the key space is placed onto channels: ``hash`` (balanced),
    #: ``range`` (contiguous shards) or ``hot`` (one hot channel owning the
    #: most popular keys).
    placement: str = "hash"
    #: Fraction of submitted transactions that additionally span a second
    #: channel and commit through the two-phase cross-channel coordinator.
    cross_channel_rate: float = 0.0
    #: Client retry/resubmission behaviour (see :mod:`repro.lifecycle.retry`).
    #: Off by default — with the default config the pipeline is bit-identical
    #: to a deployment without the retry subsystem.
    retry: RetryConfig = field(default_factory=RetryConfig)
    #: Fault-injection chaos profile (see :mod:`repro.faults`).  Off by
    #: default — with the default config no fault controller, RNG stream or
    #: simulator event is ever created, keeping no-fault runs bit-identical
    #: to a build without the fault subsystem.
    faults: FaultConfig = field(default_factory=FaultConfig)
    #: Tracing/metrics collection (see :mod:`repro.observability`).  Off by
    #: default, and *never* part of the experiment cell hash: observation does
    #: not influence the simulation, so tracing a cell keeps its identity,
    #: per-repetition seeds and results bit-identical.
    observability: ObservabilityConfig = field(default_factory=ObservabilityConfig)
    #: Online isolation checking (see :mod:`repro.checker`).  Off by default,
    #: and — like observability — *never* part of the experiment cell hash:
    #: the checker only observes the committed history, so certifying a cell
    #: keeps its identity, per-repetition seeds and results bit-identical.
    checker: CheckerConfig = field(default_factory=CheckerConfig)
    #: Parallel-execution strategy for multi-channel runs (see
    #: :mod:`repro.sim.shard`).  ``shard_workers=1`` (the default) keeps the
    #: shared-clock path; sharded execution of independent channels is
    #: bit-identical to it, so a non-conservative execution config is never
    #: part of the experiment cell hash.
    execution: ExecutionConfig = field(default_factory=ExecutionConfig)
    timing: TimingProfile = field(default_factory=TimingProfile)

    def __post_init__(self) -> None:
        if self.cluster not in CLUSTER_PRESETS:
            known = ", ".join(sorted(CLUSTER_PRESETS))
            raise ConfigurationError(f"unknown cluster preset {self.cluster!r}; known: {known}")
        preset = CLUSTER_PRESETS[self.cluster]
        if self.orgs is None:
            self.orgs = preset.orgs
        if self.peers_per_org is None:
            self.peers_per_org = preset.peers_per_org
        if self.clients is None:
            self.clients = preset.clients
        if self.resource_factor is None:
            self.resource_factor = preset.resource_factor
        self.database = DatabaseType.parse(self.database)

    # ------------------------------------------------------------ validation
    def validate(self) -> None:
        """Raise :class:`ConfigurationError` when the configuration is invalid."""
        if self.orgs < 1:
            raise ConfigurationError(f"need at least one organization, got {self.orgs}")
        if self.peers_per_org < 1:
            raise ConfigurationError(f"need at least one peer per org, got {self.peers_per_org}")
        if not 1 <= self.endorsers_per_org <= self.peers_per_org:
            raise ConfigurationError(
                f"endorsers_per_org={self.endorsers_per_org} must be between 1 and "
                f"peers_per_org={self.peers_per_org}"
            )
        if self.clients < 1:
            raise ConfigurationError(f"need at least one client, got {self.clients}")
        if self.orderers < 1:
            raise ConfigurationError(f"need at least one orderer, got {self.orderers}")
        if self.block_size < 1:
            raise ConfigurationError(f"block size must be >= 1, got {self.block_size}")
        if self.block_timeout <= 0:
            raise ConfigurationError(f"block timeout must be positive, got {self.block_timeout}")
        if self.block_max_bytes < 1024:
            raise ConfigurationError(
                f"block max bytes must be at least 1024, got {self.block_max_bytes}"
            )
        if self.induced_delay < 0 or self.induced_delay_jitter < 0:
            raise ConfigurationError("induced network delays must be non-negative")
        for org in self.delayed_orgs:
            if not 0 <= org < self.orgs:
                raise ConfigurationError(
                    f"delayed org index {org} is outside the range [0, {self.orgs})"
                )
        if self.resource_factor is not None and self.resource_factor <= 0:
            raise ConfigurationError("the resource factor must be positive")
        if self.channels < 1:
            raise ConfigurationError(f"need at least one channel, got {self.channels}")
        if self.placement not in PLACEMENT_POLICIES:
            known = ", ".join(sorted(PLACEMENT_POLICIES))
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r}; known policies: {known}"
            )
        if not 0.0 <= self.cross_channel_rate <= 1.0:
            raise ConfigurationError(
                f"the cross-channel rate must be in [0, 1], got {self.cross_channel_rate}"
            )
        if self.cross_channel_rate > 0 and self.channels < 2:
            raise ConfigurationError(
                "cross-channel transactions need at least two channels "
                f"(channels={self.channels}, cross_channel_rate={self.cross_channel_rate})"
            )
        self.retry.validate()
        self.faults.validate()
        self.observability.validate()
        self.checker.validate()
        self.execution.validate()
        if self.execution.conservative and self.channels < 2:
            raise ConfigurationError(
                "conservative (epoch-synchronized) execution needs at least two "
                f"channels, got {self.channels}"
            )
        for channel, _start, _duration in self.faults.partitions:
            if channel >= self.channels:
                raise ConfigurationError(
                    f"partition window names channel {channel}, but the network has "
                    f"only {self.channels} channel(s)"
                )

    # ------------------------------------------------------------- accessors
    @property
    def total_peers(self) -> int:
        """Total number of peers in the network."""
        return self.orgs * self.peers_per_org

    @property
    def database_profile(self) -> DatabaseLatencyProfile:
        """The latency profile of the configured state database."""
        return DatabaseType.parse(self.database).profile

    def copy(self, **overrides) -> "NetworkConfig":
        """A copy of this configuration with the given fields replaced."""
        return dataclasses.replace(self, **overrides)

    def describe(self) -> str:
        """One-line human readable summary used in reports."""
        summary = (
            f"cluster={self.cluster} orgs={self.orgs} peers/org={self.peers_per_org} "
            f"db={DatabaseType.parse(self.database).value} block_size={self.block_size} "
            f"policy={self.endorsement_policy}"
        )
        if self.channels > 1:
            summary += (
                f" channels={self.channels} placement={self.placement} "
                f"cross={self.cross_channel_rate:.0%}"
            )
        if self.execution.conservative or self.execution.shard_workers != 1:
            mode = "conservative" if self.execution.conservative else "sharded"
            summary += f" exec={mode}(workers={self.execution.shard_workers})"
        if self.retry.enabled:
            summary += f" retry={self.retry.policy}x{self.retry.max_retries}"
        if self.faults.enabled:
            summary += f" faults={self.faults.describe()}"
        return summary
