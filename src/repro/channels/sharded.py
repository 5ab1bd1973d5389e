"""Sharded multi-channel execution: independent channels across processes.

:class:`ShardedChannelNetwork` is the parallel counterpart of
:class:`~repro.channels.network.MultiChannelNetwork`.  Where the shared-clock
deployment interleaves every channel's events on one
:class:`~repro.sim.engine.Simulator`, the sharded path partitions the
topology into independent shards (:func:`repro.sim.shard.plan_shards` —
connected components of the cross-channel traffic graph), runs each shard in
its own worker process with its own calendar-queue simulator and its own
spawned RNG stream family, and merges the per-channel
:class:`~repro.network.network.ChannelRecord`\\ s back into one aggregate
:class:`~repro.network.network.RunRecord` in deterministic channel-index
order.

**Determinism contract.**  With ``cross_channel_rate == 0`` a channel's event
sequence is a pure function of its own seed-derived streams and its own
per-channel transaction-id sequence, so the merged record is *bit-identical*
to the shared-clock run (asserted by the golden bit-identity suite) — only
the declared execution metadata (``RunRecord.execution`` /
``RunRecord.shard_count``) and wall-clock observability details differ.
Merge-time fixups reproduce the shared-clock arithmetic exactly: transactions
re-sort by ``(submitted_at, tx_id)``, ``simulated_end`` becomes the maximum
shard end time, and station utilizations are recomputed bitwise from raw
busy-time accumulators over the global horizon
(:meth:`~repro.network.network.FabricNetwork.station_loads`).

**Fallbacks.**  Topologies whose cross traffic couples every channel into one
component (any positive rate with ``uniform`` partners), single-shard plans,
and configurations with a *global* resubmission rate cap (one token bucket
across channels cannot be sharded) transparently fall back to the
shared-clock :class:`MultiChannelNetwork` — the runner never changes what a
run computes, only where.

**Conservative mode.**  ``ExecutionConfig(conservative=True)`` opts a coupled
topology into barrier-synchronized epoch execution instead: every channel
advances its own simulator in lock-step epochs of width
``timing.cross_channel_prepare`` (the minimum cross-channel hop service
time — the classic conservative-PDES lookahead bound), and the two-phase
prepare/commit messages cross shards only at epoch boundaries (delivery at
``max(natural arrival, next barrier)``).  That is a *distinct* simulation
semantics — deterministic and golden-pinned separately, never claimed
identical to the shared clock — reported as
``RunRecord.execution == "sharded-conservative"``.
"""

from __future__ import annotations

import math
import multiprocessing
import pickle
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.channels.channel import Channel, ChannelGateway
from repro.channels.network import MultiChannelNetwork
from repro.channels.topology import ChannelRouter, ChannelTopology, ShardedKeyDistribution
from repro.chaincode.base import Chaincode
from repro.checker.checker import merge_isolation_reports
from repro.errors import ConfigurationError, SimulationError
from repro.ledger.block import Transaction, ValidationCode
from repro.ledger.ledger import Ledger
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.retry import ResubmissionGovernor
from repro.network.config import NetworkConfig
from repro.network.network import ChannelRecord, FabricNetwork, RunRecord
from repro.observability.observer import ObservabilityData, RunObserver
from repro.sim.collector import quiet_collector
from repro.sim.engine import Simulator
from repro.sim.profile import EngineProfiler
from repro.sim.rng import RandomStreams
from repro.sim.shard import ShardPlan, plan_shards, resolve_worker_count
from repro.sim.stats import mean
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import CrossChannelMix, TransactionMix


# ------------------------------------------------------------------ worker IPC
@dataclass(frozen=True)
class _ShardTask:
    """Everything one worker process needs to simulate one shard."""

    config: NetworkConfig
    chaincode_factory: Callable[[], Chaincode]
    variant_factory: Callable[[], object]
    seed: int
    hot_share: float
    partner_strategy: str
    channels: Tuple[int, ...]
    mix: TransactionMix
    arrival_rate: float
    duration: float
    key_distribution: Optional[KeyDistribution]
    workload_name: str


@dataclass
class _ShardResult:
    """One shard's picklable slice of the run, returned to the parent."""

    channels: Tuple[int, ...]
    records: List[ChannelRecord]
    #: ``channel index -> raw station accumulators`` (see
    #: :meth:`FabricNetwork.station_loads`) for the merge-time horizon fixup.
    loads: Dict[int, dict]
    #: The shard simulator's local end time.
    end: float
    #: The shard's :meth:`EngineProfiler.report`.
    engine: dict = field(default_factory=dict)
    observability: Optional[ObservabilityData] = None


def _build_shard_cell(task: "_ShardTask", sim: Simulator, bus: LifecycleBus):
    """Build one shard's channels on ``sim`` exactly as the shared path would.

    Construction mirrors :class:`MultiChannelNetwork.__init__` +
    :meth:`MultiChannelNetwork.run` member for member — same stream spawns,
    same bus piping, same observer probes — restricted to ``task.channels``.
    Returns ``(channels, observer, retry_governor, cross_mix, router,
    topology)``; client arrivals are *not* started yet.
    """
    config = task.config.copy()
    streams = RandomStreams(task.seed)
    topology = ChannelTopology(
        channels=config.channels, placement=config.placement, hot_share=task.hot_share
    )
    router = ChannelRouter(topology)
    cross = CrossChannelMix(
        rate=config.cross_channel_rate, partner_strategy=task.partner_strategy
    )
    shares = topology.arrival_shares()
    channels: List[Channel] = []
    for index in task.channels:
        network = FabricNetwork(
            config=config.copy(),
            chaincode=task.chaincode_factory(),
            variant=task.variant_factory(),
            seed=task.seed,
            sim=sim,
            streams=streams.spawn(f"channel-{index}"),
            channel_index=index,
        )
        network.bus.pipe_to(bus)
        channels.append(Channel(index=index, network=network, arrival_share=shares[index]))
    retry_governor = (
        ResubmissionGovernor(config.retry.rate_cap) if config.retry.enabled else None
    )
    observer: Optional[RunObserver] = None
    if config.observability.enabled:
        observer = RunObserver(sim, bus, config.observability)
        for channel in channels:
            observer.add_queue_probe(
                f"orderer.ch{channel.index}",
                lambda network=channel.network: network.orderer.pending_count,
            )
            if channel.network.faults is not None:
                observer.watch_faults(channel.network.faults)
    return channels, observer, retry_governor, cross, router, topology


def _start_shard_clients(
    task: "_ShardTask",
    channels: List[Channel],
    observer: Optional[RunObserver],
    retry_governor: Optional[ResubmissionGovernor],
    cross: CrossChannelMix,
    router: ChannelRouter,
    topology: ChannelTopology,
    coordinator=None,
) -> None:
    """Schedule every channel's client arrivals (mirrors the shared path)."""
    if observer is not None:
        observer.on_run_start(task.duration)
    for channel in channels:
        shard = ShardedKeyDistribution(
            topology=topology, channel=channel.index, base=task.key_distribution
        )
        gateway = ChannelGateway(
            channel=channel,
            router=router,
            cross_channel=cross,
            rng=channel.network.streams.stream("cross-channel"),
            coordinator=coordinator if cross.enabled else None,
        )
        channel.start(
            mix=task.mix,
            total_arrival_rate=task.arrival_rate,
            duration=task.duration,
            key_distribution=task.key_distribution,
            shard=shard,
            gateway=gateway,
            retry_governor=retry_governor,
        )


def _collect_shard(
    task: "_ShardTask",
    sim: Simulator,
    channels: List[Channel],
    observer: Optional[RunObserver],
    profiler: EngineProfiler,
) -> "_ShardResult":
    """Harvest one shard into a picklable :class:`_ShardResult`."""
    records = [
        channel.collect(duration=task.duration, workload_name=task.workload_name)
        for channel in channels
    ]
    loads = {channel.index: channel.network.station_loads() for channel in channels}
    observability: Optional[ObservabilityData] = None
    if observer is not None:
        observer.adopt_profiler(profiler)
        block_times = {
            record.index: {
                block.number: block.created_at for block in record.record.ledger.blocks
            }
            for record in records
        }
        observability = observer.collect(block_times, final_time=sim.now)
    return _ShardResult(
        channels=tuple(task.channels),
        records=records,
        loads=loads,
        end=sim.now,
        engine=profiler.report(),
        observability=observability,
    )


def _execute_shard(task: "_ShardTask") -> "_ShardResult":
    """Simulate one shard to completion."""
    sim = Simulator()
    bus = LifecycleBus()
    channels, observer, governor, cross, router, topology = _build_shard_cell(task, sim, bus)
    _start_shard_clients(task, channels, observer, governor, cross, router, topology)
    profiler = EngineProfiler(sim)
    with profiler:
        sim.run_until_empty()
    return _collect_shard(task, sim, channels, observer, profiler)


@quiet_collector()
def _execute_shard_to_bytes(task: "_ShardTask") -> bytes:
    """Pool worker entry point (module level, so it pickles across the pool).

    The worker serialises its own result, inside the collector scope that
    covered the simulation, and hands the pool opaque ``bytes``: pickling a
    shard's retained transactions allocates per record, and left to the pool
    it would run after this function returned — outside any scope, with full
    collections re-walking the heap it is dumping.  One ``dumps`` call also
    means one memo, so the read/write set an endorsement shares with its
    transaction crosses the boundary once.
    """
    return pickle.dumps(_execute_shard(task), protocol=pickle.HIGHEST_PROTOCOL)


# -------------------------------------------------------------- merge helpers
def _utilization(load: Tuple[float, int], horizon: float) -> float:
    """``ServiceStation.utilization`` recomputed from a raw ``(busy, servers)``
    pair — must stay bitwise-identical to
    :meth:`repro.sim.resources.ServiceStation.utilization`."""
    busy_time, servers = load
    if horizon <= 0.0:
        return 0.0
    return min(1.0, busy_time / (horizon * servers))


def _merge_counts(dicts: List[Dict[str, int]]) -> Dict[str, int]:
    """Key-wise sum in sorted key order (lifecycle counts, fault stats)."""
    merged: Dict[str, int] = {}
    for counts in dicts:
        for key, count in counts.items():
            merged[key] = merged.get(key, 0) + count
    return dict(sorted(merged.items()))


def merge_engine_reports(reports: List[dict], wall_seconds: float) -> dict:
    """One deployment-wide engine summary from per-shard profiler reports.

    Event and batch counts sum; ``wall_seconds`` is the parent-measured
    elapsed time over the whole fan-out (so ``events_per_sec`` reflects real
    parallel throughput, not the sum of per-shard rates); queue-depth
    histograms sum bucket-wise and the maximum depth is the max over shards.
    The untouched per-shard reports ride along under ``"shards"``.
    """
    events = sum(report.get("events", 0) for report in reports)
    batches = sum(report.get("batches", 0) for report in reports)
    histogram: Dict[str, int] = {}
    for report in reports:
        for bucket, count in report.get("depth_histogram", {}).items():
            histogram[bucket] = histogram.get(bucket, 0) + count
    return {
        "events": events,
        "batches": batches,
        "wall_seconds": wall_seconds,
        "events_per_sec": (events / wall_seconds) if wall_seconds > 0 else 0.0,
        "events_per_batch": (events / batches) if batches else 0.0,
        "max_queue_depth": max(
            (report.get("max_queue_depth", 0) for report in reports), default=0
        ),
        "depth_histogram": dict(
            sorted(histogram.items(), key=lambda pair: (len(pair[0]), pair[0]))
        ),
        "shards": reports,
    }


def merge_observability(
    parts: List[ObservabilityData], wall_seconds: float
) -> ObservabilityData:
    """One deployment-wide :class:`ObservabilityData` from per-shard data.

    * **Spans** concatenate in shard (channel-index) order, so the Chrome
      trace exporter's sequential thread ids form one contiguous tid range
      per shard under a single run pid.
    * **Samples** merge by tick time: shards sample on the same sim-time
      grid, and their counter columns (rates, pending events) sum; the
      per-channel queue columns are disjoint and union.
    * **Markers** concatenate and re-sort exactly like a single observer.
    * **Summary** counters sum key-wise; histogram sketches cannot be merged
      exactly, so the merged view reports the exactly mergeable moments
      (count/min/max/mean) and the complete per-shard summaries ride along
      under ``"shards"``.
    """
    spans = [span for data in parts for span in data.spans]
    samples: Dict[float, Dict[str, float]] = {}
    for data in parts:
        for row in data.samples:
            target = samples.setdefault(row["time"], {"time": row["time"]})
            for column, value in row.items():
                if column != "time":
                    target[column] = target.get(column, 0.0) + value
    markers = sorted(
        (marker for data in parts for marker in data.markers),
        key=lambda marker: (marker["time"], marker["kind"], str(marker["target"])),
    )
    counters = _merge_counts([data.summary.get("counters", {}) for data in parts])
    histograms: Dict[str, dict] = {}
    for data in parts:
        for name, snapshot in data.summary.get("histograms", {}).items():
            merged = histograms.setdefault(name, {"count": 0})
            count = snapshot.get("count", 0)
            if not count:
                continue
            previous = merged["count"]
            merged["min"] = min(merged.get("min", snapshot["min"]), snapshot["min"])
            merged["max"] = max(merged.get("max", snapshot["max"]), snapshot["max"])
            merged["mean"] = (
                merged.get("mean", 0.0) * previous + snapshot["mean"] * count
            ) / (previous + count)
            merged["count"] = previous + count
    summary: dict = {
        "counters": counters,
        "gauges": _merge_counts([data.summary.get("gauges", {}) for data in parts]),
        "histograms": dict(sorted(histograms.items())),
        "shards": [data.summary for data in parts],
    }
    engine_reports = [
        data.summary["engine"] for data in parts if isinstance(data.summary.get("engine"), dict)
    ]
    if engine_reports:
        summary["engine"] = merge_engine_reports(engine_reports, wall_seconds)
    return ObservabilityData(
        spans=spans,
        samples=[samples[tick] for tick in sorted(samples)],
        markers=markers,
        summary=summary,
    )


#: :class:`RunRecord` fields that legitimately differ between execution
#: strategies: declared execution metadata plus observability (wall-clock
#: detail, never part of a cell's identity).
EXECUTION_METADATA_FIELDS = ("execution", "shard_count", "observability")


def record_fingerprint(record: RunRecord) -> dict:
    """A canonical, comparison-friendly digest of everything a run computed.

    Two runs are *bit-identical* in the sense of the sharding determinism
    contract exactly when their fingerprints compare equal: every transaction
    with all timing/validation fields, every block of every ledger, lifecycle
    counts, retry and fault counters, utilizations and the simulated horizon.
    The declared execution metadata (:data:`EXECUTION_METADATA_FIELDS`) is
    excluded — it is the one place the strategies are allowed to differ.
    """

    def tx_digest(tx: Transaction) -> tuple:
        return (
            tx.tx_id,
            tx.client_name,
            tx.function,
            tx.channel,
            tx.partner_channel,
            tx.attempt,
            tx.origin_tx_id,
            tx.submitted_at,
            tx.endorsement_completed_at,
            tx.prepare_started_at,
            tx.prepare_completed_at,
            tx.committed_at,
            tx.validation_code.value if tx.validation_code is not None else None,
            tx.endorsement_mismatch,
            len(tx.endorsements),
        )

    def ledger_digest(ledger: Ledger) -> list:
        return [
            (
                block.number,
                block.created_at,
                block.cut_reason.value if block.cut_reason is not None else None,
                tuple(
                    (tx.tx_id, tx.validation_code.value if tx.validation_code else None)
                    for tx in block.transactions
                ),
            )
            for block in ledger.blocks
        ]

    def run_digest(run: RunRecord) -> dict:
        digest = {
            "variant": run.variant_name,
            "chaincode": run.chaincode_name,
            "workload": run.workload_name,
            "arrival_rate": run.arrival_rate,
            "duration": run.duration,
            "seed": run.seed,
            "simulated_end": run.simulated_end,
            "blocks_cut": run.blocks_cut,
            "orderer_utilization": run.orderer_utilization,
            "mean_validation_utilization": run.mean_validation_utilization,
            "mean_endorsement_utilization": run.mean_endorsement_utilization,
            "lifecycle_counts": dict(run.lifecycle_counts),
            "retry": (
                run.retry_policy,
                run.resubmissions,
                run.retries_exhausted,
                run.retry_budget_denied,
                run.retry_rate_denied,
            ),
            "fault_injections": dict(run.fault_injections),
            "transactions": [tx_digest(tx) for tx in run.transactions],
            "early_aborted": [tx_digest(tx) for tx in run.early_aborted],
            "read_only_skipped": [tx_digest(tx) for tx in run.read_only_skipped],
            "ledger": ledger_digest(run.ledger),
        }
        # Isolation verdicts and witness sets are part of the fingerprint:
        # execution strategies must certify and refute identically, witness
        # for witness.  The key is omitted entirely when checking is off so
        # that enabling the checker never perturbs pre-checker golden digests.
        if run.isolation is not None:
            digest["isolation"] = run.isolation.summary()
        return digest

    digest = run_digest(record)
    digest["channels"] = [
        {
            "index": channel.index,
            "name": channel.name,
            "cross_channel_submitted": channel.cross_channel_submitted,
            "cross_channel_aborted": channel.cross_channel_aborted,
            "record": run_digest(channel.record),
        }
        for channel in record.channel_records
    ]
    return digest


# ----------------------------------------------------- conservative 2PC relay
@dataclass(frozen=True)
class _EpochMessage:
    """One cross-shard message, exchanged at the next epoch barrier."""

    deliver_at: float
    target: int
    callback: Callable[..., None]
    args: tuple


class EpochCoordinator:
    """The two-phase prepare/commit relay of the conservative engine.

    Duck-type compatible with
    :class:`~repro.channels.coordinator.CrossChannelCoordinator` as seen from
    :class:`~repro.channels.channel.ChannelGateway` (``channels`` +
    ``submit``), but every hop that would cross a shard boundary goes into an
    outbox instead of the simulator: the epoch loop drains the outbox at each
    barrier and injects delivery events into the target shard's own clock at
    ``max(natural arrival, barrier time)``.
    """

    def __init__(self, channels: List[Channel], rng) -> None:
        if len(channels) < 2:
            raise SimulationError("a cross-channel coordinator needs at least two channels")
        self.channels = channels
        self.rng = rng
        self._locks: Dict[Tuple[int, str], str] = {}
        self.outbox: List[_EpochMessage] = []
        self.prepares_started = 0
        self.committed = 0
        self.aborted = 0

    # -------------------------------------------------------------- protocol
    def submit(self, tx: Transaction, home: Channel) -> None:
        """Phase 1 on the home shard: no-wait locks, then ship the prepare."""
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
        tx.prepare_started_at = home.network.sim.now
        delay = home.network.latency.one_way(None, None)
        self.outbox.append(
            _EpochMessage(
                deliver_at=home.network.sim.now + delay,
                target=partner.index,
                callback=self._prepare_on_partner,
                args=(tx, home, partner),
            )
        )

    def _prepare_on_partner(self, tx: Transaction, home: Channel, partner: Channel) -> None:
        """Runs in the partner shard: occupy its ordering service."""
        timing = partner.network.config.timing
        service_time = timing.cross_channel_prepare * partner.network.config.resource_factor
        partner.orderer.consensus_station.submit(service_time, self._prepared, tx, home, partner)

    def _prepared(self, tx: Transaction, home: Channel, partner: Channel) -> None:
        """Runs in the partner shard: ship the ack back to the home shard."""
        delay = partner.network.latency.one_way(None, None)
        self.outbox.append(
            _EpochMessage(
                deliver_at=partner.network.sim.now + delay,
                target=home.index,
                callback=self._commit_on_home,
                args=(tx, home),
            )
        )

    def _commit_on_home(self, tx: Transaction, home: Channel) -> None:
        """Phase 2, in the home shard: release locks and order normally."""
        self._release(tx, home)
        self.committed += 1
        tx.prepare_completed_at = home.network.sim.now
        home.orderer.submit(tx)

    def drain(self) -> List[_EpochMessage]:
        """All messages produced since the last barrier, in send order."""
        messages, self.outbox = self.outbox, []
        return messages

    # -------------------------------------------------------------- internals
    def _abort(self, tx: Transaction, home: Channel, keys: List[str]) -> None:
        conflicting = sorted(key for key in keys if (home.index, key) in self._locks)
        tx.conflicting_key = conflicting[0] if conflicting else None
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
        if tx.rwset is None:
            return []
        keys = {read.key for read in tx.rwset.all_reads()}
        keys.update(write.key for write in tx.rwset.writes)
        return sorted(keys)

    @property
    def locks_held(self) -> int:
        """Number of keys currently locked by preparing transactions."""
        return len(self._locks)


# -------------------------------------------------------------------- network
class ShardedChannelNetwork:
    """N Fabric channels sharded across worker processes (or epoch cells).

    Exposes the same ``run(mix, arrival_rate, duration, ...) -> RunRecord``
    surface as :class:`MultiChannelNetwork`; see the module docstring for the
    three execution regimes (parallel shards, shared-clock fallback,
    conservative epochs) and their semantics.
    """

    def __init__(
        self,
        config: NetworkConfig,
        chaincode_factory: Callable[[], Chaincode],
        variant_factory: Callable[[], object],
        seed: int = 7,
        hot_share: float = 0.5,
        partner_strategy: str = "uniform",
    ) -> None:
        config = config.copy()
        config.validate()
        if config.channels < 2:
            raise ConfigurationError(
                f"ShardedChannelNetwork needs at least two channels, got {config.channels}; "
                "use FabricNetwork for single-channel runs"
            )
        self.config = config
        self.seed = seed
        self.hot_share = hot_share
        self.partner_strategy = partner_strategy
        self.chaincode_factory = chaincode_factory
        self.variant_factory = variant_factory
        self.execution = config.execution
        self.plan: ShardPlan = plan_shards(
            config.channels, config.cross_channel_rate, partner_strategy
        )
        #: Deployment-level lifecycle bus.  Only live in conservative mode
        #: (the epoch cells run in-process and pipe into it); in the parallel
        #: regime the events happen inside worker processes and surface as
        #: the aggregate record's ``lifecycle_counts``.
        self.bus = LifecycleBus()
        #: Filled by :meth:`run`: worker processes actually used, pickled
        #: result bytes they sent back (0 when the shards ran in-process),
        #: merged engine profile (also embedded in the record's observability
        #: summary when metrics are enabled), and the strategy executed.
        self.shard_workers_used = 0
        self.shard_transport_bytes = 0
        self.engine_summary: Optional[dict] = None
        self.execution_mode = "unresolved"

    # ------------------------------------------------------------------- run
    @quiet_collector()
    def run(
        self,
        mix: TransactionMix,
        arrival_rate: float,
        duration: float,
        key_distribution: Optional[KeyDistribution] = None,
        workload_name: str = "custom",
    ) -> RunRecord:
        """Run one experiment across all shards and merge the aggregate record."""
        if arrival_rate <= 0:
            raise ConfigurationError(f"the arrival rate must be positive, got {arrival_rate}")
        if duration <= 0:
            raise ConfigurationError(f"the duration must be positive, got {duration}")
        if self.execution.conservative:
            return self._run_conservative(
                mix, arrival_rate, duration, key_distribution, workload_name
            )
        if not self.plan.is_partitioned or self._needs_shared_clock():
            return self._run_fallback(
                mix, arrival_rate, duration, key_distribution, workload_name
            )
        return self._run_sharded(mix, arrival_rate, duration, key_distribution, workload_name)

    def _needs_shared_clock(self) -> bool:
        """True when a deployment-global coupling forbids sharding.

        The resubmission rate cap is one token bucket across *all* channels
        (see :class:`MultiChannelNetwork`); slicing it per shard would change
        admission decisions, so such runs keep the shared clock.
        """
        return self.config.retry.enabled and self.config.retry.rate_cap is not None

    # -------------------------------------------------------------- fallback
    def _run_fallback(
        self, mix, arrival_rate, duration, key_distribution, workload_name
    ) -> RunRecord:
        self.execution_mode = "shared-clock"
        self.shard_workers_used = 1
        fallback = MultiChannelNetwork(
            config=self.config.copy(),
            chaincode_factory=self.chaincode_factory,
            variant_factory=self.variant_factory,
            seed=self.seed,
            hot_share=self.hot_share,
            partner_strategy=self.partner_strategy,
        )
        self.bus = fallback.bus
        return fallback.run(
            mix=mix,
            arrival_rate=arrival_rate,
            duration=duration,
            key_distribution=key_distribution,
            workload_name=workload_name,
        )

    # -------------------------------------------------------------- parallel
    def _shard_tasks(
        self, mix, arrival_rate, duration, key_distribution, workload_name
    ) -> List[_ShardTask]:
        return [
            _ShardTask(
                config=self.config.copy(),
                chaincode_factory=self.chaincode_factory,
                variant_factory=self.variant_factory,
                seed=self.seed,
                hot_share=self.hot_share,
                partner_strategy=self.partner_strategy,
                channels=shard,
                mix=mix,
                arrival_rate=arrival_rate,
                duration=duration,
                key_distribution=key_distribution,
                workload_name=workload_name,
            )
            for shard in self.plan.shards
        ]

    def _run_sharded(
        self, mix, arrival_rate, duration, key_distribution, workload_name
    ) -> RunRecord:
        self.execution_mode = "sharded"
        tasks = self._shard_tasks(mix, arrival_rate, duration, key_distribution, workload_name)
        workers = resolve_worker_count(self.execution.shard_workers, self.plan.shard_count)
        if workers > 1:
            try:
                pickle.dumps(tasks)
            except Exception:
                # Unpicklable factories (lambdas, closures) run in-process —
                # same results, no process parallelism; mirrors the runner.
                workers = 1
        started = time.perf_counter()
        if workers > 1:
            with multiprocessing.Pool(processes=workers) as pool:
                blobs = pool.map(_execute_shard_to_bytes, tasks)
            self.shard_transport_bytes = sum(len(blob) for blob in blobs)
            results = [pickle.loads(blob) for blob in blobs]
        else:
            results = [_execute_shard(task) for task in tasks]
        wall = time.perf_counter() - started
        self.shard_workers_used = workers
        return self._merge(
            results,
            arrival_rate=arrival_rate,
            duration=duration,
            workload_name=workload_name,
            wall_seconds=wall,
            execution="sharded",
            shard_count=self.plan.shard_count,
        )

    # ---------------------------------------------------------- conservative
    def _run_conservative(
        self, mix, arrival_rate, duration, key_distribution, workload_name
    ) -> RunRecord:
        self.execution_mode = "sharded-conservative"
        self.shard_workers_used = 1
        width = self.config.timing.cross_channel_prepare
        if width <= 0:
            raise ConfigurationError(
                "conservative execution needs a positive cross_channel_prepare "
                f"lookahead, got {width}"
            )
        # One epoch cell per channel, each on its own simulator clock, all
        # in-process: the cells only interact through the coordinator outbox,
        # which the barrier loop below drains once per epoch.
        streams = RandomStreams(self.seed)
        cells = []
        all_channels: List[Channel] = []
        for index in range(self.config.channels):
            task = _ShardTask(
                config=self.config.copy(),
                chaincode_factory=self.chaincode_factory,
                variant_factory=self.variant_factory,
                seed=self.seed,
                hot_share=self.hot_share,
                partner_strategy=self.partner_strategy,
                channels=(index,),
                mix=mix,
                arrival_rate=arrival_rate,
                duration=duration,
                key_distribution=key_distribution,
                workload_name=workload_name,
            )
            sim = Simulator()
            bus = LifecycleBus()
            bus.pipe_to(self.bus)
            channels, observer, governor, cross, router, topology = _build_shard_cell(
                task, sim, bus
            )
            cells.append(
                {
                    "task": task,
                    "sim": sim,
                    "channels": channels,
                    "observer": observer,
                    "governor": governor,
                    "cross": cross,
                    "router": router,
                    "topology": topology,
                }
            )
            all_channels.extend(channels)
        coordinator = EpochCoordinator(all_channels, streams.stream("coordinator"))
        for cell in cells:
            _start_shard_clients(
                cell["task"],
                cell["channels"],
                cell["observer"],
                cell["governor"],
                cell["cross"],
                cell["router"],
                cell["topology"],
                coordinator=coordinator,
            )
        # Each cell's profiler stays attached across every epoch slice; its
        # wall-clock window spans the whole barrier loop (the cells interleave
        # on one OS thread, so per-cell wall time is not separable).
        profilers = [EngineProfiler(cell["sim"]).__enter__() for cell in cells]
        started = time.perf_counter()
        barrier = 0.0
        while True:
            messages = coordinator.drain()
            for message in messages:
                cells[message.target]["sim"].post_at(
                    max(message.deliver_at, barrier), message.callback, *message.args
                )
            next_time = min(cell["sim"].next_event_time for cell in cells)
            if next_time == math.inf:
                break
            # Jump straight to the epoch containing the next event — the
            # barrier stays on the k*width grid (message delivery times are a
            # function of that grid, so determinism requires never leaving it)
            # but runs of provably empty epochs are skipped outright.
            barrier = max(barrier + width, math.ceil(next_time / width) * width)
            for cell in cells:
                cell["sim"].run(until=barrier)
        wall = time.perf_counter() - started
        results = []
        for cell, profiler in zip(cells, profilers):
            profiler.__exit__(None, None, None)
            results.append(
                _collect_shard(
                    cell["task"], cell["sim"], cell["channels"], cell["observer"], profiler
                )
            )
        record = self._merge(
            results,
            arrival_rate=arrival_rate,
            duration=duration,
            workload_name=workload_name,
            wall_seconds=wall,
            execution="sharded-conservative",
            shard_count=self.config.channels,
        )
        self.coordinator = coordinator
        return record

    # ----------------------------------------------------------------- merge
    def _merge(
        self,
        results: List[_ShardResult],
        arrival_rate: float,
        duration: float,
        workload_name: str,
        wall_seconds: float,
        execution: str,
        shard_count: int,
    ) -> RunRecord:
        """Deterministic merge, mirroring
        :meth:`MultiChannelNetwork._aggregate_record` field for field."""
        by_channel: Dict[int, ChannelRecord] = {}
        loads: Dict[int, dict] = {}
        for result in results:
            for record in result.records:
                by_channel[record.index] = record
            loads.update(result.loads)
        channel_records = [by_channel[index] for index in range(self.config.channels)]
        global_end = max(result.end for result in results)
        horizon = max(duration, global_end)
        for channel_record in channel_records:
            load = loads[channel_record.index]
            run = channel_record.record
            run.simulated_end = global_end
            run.orderer_utilization = _utilization(load["orderer"], horizon)
            run.mean_validation_utilization = mean(
                _utilization(entry, horizon) for entry in load["validation"]
            )
            run.mean_endorsement_utilization = mean(
                _utilization(entry, horizon) for entry in load["endorsement"]
            )
        transactions: List[Transaction] = []
        early_aborted: List[Transaction] = []
        read_only_skipped: List[Transaction] = []
        for channel_record in channel_records:
            transactions.extend(channel_record.record.transactions)
            early_aborted.extend(channel_record.record.early_aborted)
            read_only_skipped.extend(channel_record.record.read_only_skipped)
        transactions.sort(key=lambda tx: (tx.submitted_at, tx.tx_id))
        self.engine_summary = merge_engine_reports(
            [result.engine for result in results], wall_seconds
        )
        observability: Optional[ObservabilityData] = None
        parts = [result.observability for result in results]
        if all(part is not None for part in parts) and parts:
            observability = merge_observability(parts, wall_seconds)
        reference = channel_records[0].record
        return RunRecord(
            # The reference channel's config went through variant.configure(),
            # so the aggregate reports the *effective* parameters — same as
            # the shared-clock aggregate.
            config=reference.config,
            variant_name=reference.variant_name,
            chaincode_name=reference.chaincode_name,
            workload_name=workload_name,
            arrival_rate=arrival_rate,
            duration=duration,
            seed=self.seed,
            ledger=Ledger(),  # per-channel chains live in channel_records
            transactions=transactions,
            early_aborted=early_aborted,
            read_only_skipped=read_only_skipped,
            simulated_end=global_end,
            blocks_cut=sum(record.record.blocks_cut for record in channel_records),
            orderer_utilization=mean(
                record.record.orderer_utilization for record in channel_records
            ),
            mean_validation_utilization=mean(
                record.record.mean_validation_utilization for record in channel_records
            ),
            mean_endorsement_utilization=mean(
                record.record.mean_endorsement_utilization for record in channel_records
            ),
            channel_records=channel_records,
            lifecycle_counts=_merge_counts(
                [record.record.lifecycle_counts for record in channel_records]
            ),
            retry_policy=self.config.retry.policy,
            resubmissions=sum(record.record.resubmissions for record in channel_records),
            retries_exhausted=sum(
                record.record.retries_exhausted for record in channel_records
            ),
            retry_budget_denied=sum(
                record.record.retry_budget_denied for record in channel_records
            ),
            retry_rate_denied=sum(
                record.record.retry_rate_denied for record in channel_records
            ),
            fault_injections=_merge_counts(
                [record.record.fault_injections for record in channel_records]
            ),
            observability=observability,
            isolation=merge_isolation_reports(
                record.record.isolation for record in channel_records
            ),
            execution=execution,
            shard_count=shard_count,
        )
