"""A multi-channel Fabric deployment on one shared simulation clock.

:class:`MultiChannelNetwork` is the multi-channel counterpart of
:class:`~repro.network.network.FabricNetwork`: it builds one complete Fabric
slice per channel (ledger, state store, ordering service, peers), partitions
the key space across the channels with a
:class:`~repro.channels.topology.ChannelTopology`, routes the configured
fraction of transactions through the
:class:`~repro.channels.coordinator.CrossChannelCoordinator`, and returns an
aggregate :class:`~repro.network.network.RunRecord` carrying one
:class:`~repro.network.network.ChannelRecord` per channel.

All channels share a single :class:`~repro.sim.engine.Simulator`, so
independent channels simulate concurrently (their events interleave in global
virtual-time order) while the whole run stays deterministic and reproducible
through the :mod:`repro.bench.runner` machinery.  Every channel draws from its
own spawned :class:`~repro.sim.rng.RandomStreams` family, so adding a channel
never perturbs the random draws of another.

Modeling notes:

* Each channel gets its own endorsement/validation stations and ordering
  service — the scale-out deployment where channels are used to grow
  aggregate throughput (each channel backed by dedicated resources).
* Every channel carries the full genesis population; partitioning is enforced
  at the workload layer (a channel's clients draw primary entities from its
  shard only), matching how applications route traffic to channels while any
  channel could technically host any key.  Within a channel the population is
  stored once: the channel's slice populates one frozen base and its
  validator state and endorsing peers layer copy-on-write overlays over it
  (see :mod:`repro.ledger.store`), so channel count no longer multiplies by
  peer count in state memory.
* Keys freshly *inserted* by a workload commit on the submitting channel,
  whatever their hash — Fabric itself never re-homes a written key.
"""

from __future__ import annotations

from typing import Callable, List, Optional

from repro.channels.channel import Channel, ChannelGateway
from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.topology import ChannelRouter, ChannelTopology, ShardedKeyDistribution
from repro.chaincode.base import Chaincode
from repro.checker.checker import merge_isolation_reports
from repro.errors import ConfigurationError
from repro.ledger.block import Transaction
from repro.ledger.ledger import Ledger
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.retry import ResubmissionGovernor
from repro.network.config import NetworkConfig
from repro.network.network import FabricNetwork, RunRecord
from repro.observability.observer import ObservabilityData, RunObserver
from repro.sim.collector import quiet_collector
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.sim.stats import mean
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import CrossChannelMix, TransactionMix


class MultiChannelNetwork:
    """N Fabric channels sharded over the key space, on one simulator clock."""

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
                f"MultiChannelNetwork needs at least two channels, got {config.channels}; "
                "use FabricNetwork for single-channel runs"
            )
        self.config = config
        self.seed = seed
        self.sim = Simulator()
        self.streams = RandomStreams(seed)
        #: Deployment-wide lifecycle event stream: every channel's own bus is
        #: piped into this one, so cross-channel consumers (and the aggregate
        #: record) observe a single stream.
        self.bus = LifecycleBus()
        self.topology = ChannelTopology(
            channels=config.channels, placement=config.placement, hot_share=hot_share
        )
        self.router = ChannelRouter(self.topology)
        self.cross_channel = CrossChannelMix(
            rate=config.cross_channel_rate, partner_strategy=partner_strategy
        )

        shares = self.topology.arrival_shares()
        self.channels: List[Channel] = []
        for index in range(config.channels):
            network = FabricNetwork(
                config=config.copy(),
                chaincode=chaincode_factory(),
                variant=variant_factory(),
                seed=seed,
                sim=self.sim,
                streams=self.streams.spawn(f"channel-{index}"),
                channel_index=index,
            )
            network.bus.pipe_to(self.bus)
            self.channels.append(
                Channel(index=index, network=network, arrival_share=shares[index])
            )
        self.coordinator = CrossChannelCoordinator(
            sim=self.sim, channels=self.channels, rng=self.streams.stream("coordinator")
        )
        #: One governor for the whole deployment: the resubmission rate cap is
        #: global, not per channel slice.
        self.retry_governor = (
            ResubmissionGovernor(config.retry.rate_cap) if config.retry.enabled else None
        )
        #: One observer for the whole deployment, on the piped deployment bus —
        #: the per-channel slices share the clock, so they skip their own (see
        #: :class:`~repro.network.network.FabricNetwork`).
        self.observer: Optional[RunObserver] = None
        if config.observability.enabled:
            self.observer = RunObserver(self.sim, self.bus, config.observability)
            for channel in self.channels:
                self.observer.add_queue_probe(
                    f"orderer.ch{channel.index}",
                    lambda network=channel.network: network.orderer.pending_count,
                )
                if channel.network.faults is not None:
                    self.observer.watch_faults(channel.network.faults)

    # -------------------------------------------------------------------- run
    @quiet_collector()
    def run(
        self,
        mix: TransactionMix,
        arrival_rate: float,
        duration: float,
        key_distribution: Optional[KeyDistribution] = None,
        workload_name: str = "custom",
    ) -> RunRecord:
        """Run one experiment across all channels and return the aggregate record."""
        if arrival_rate <= 0:
            raise ConfigurationError(f"the arrival rate must be positive, got {arrival_rate}")
        if duration <= 0:
            raise ConfigurationError(f"the duration must be positive, got {duration}")
        if self.observer is not None:
            self.observer.on_run_start(duration)
        for channel in self.channels:
            shard = ShardedKeyDistribution(
                topology=self.topology, channel=channel.index, base=key_distribution
            )
            gateway = ChannelGateway(
                channel=channel,
                router=self.router,
                cross_channel=self.cross_channel,
                rng=channel.network.streams.stream("cross-channel"),
                coordinator=self.coordinator if self.cross_channel.enabled else None,
            )
            channel.start(
                mix=mix,
                total_arrival_rate=arrival_rate,
                duration=duration,
                key_distribution=key_distribution,
                shard=shard,
                gateway=gateway,
                retry_governor=self.retry_governor,
            )
        if self.observer is not None:
            with self.observer.profile():
                self.sim.run_until_empty()
        else:
            self.sim.run_until_empty()
        return self._aggregate_record(arrival_rate, duration, workload_name)

    # -------------------------------------------------------------- recording
    def _aggregate_record(
        self, arrival_rate: float, duration: float, workload_name: str
    ) -> RunRecord:
        channel_records = [
            channel.collect(duration=duration, workload_name=workload_name)
            for channel in self.channels
        ]
        transactions: List[Transaction] = []
        early_aborted: List[Transaction] = []
        read_only_skipped: List[Transaction] = []
        for record in channel_records:
            transactions.extend(record.record.transactions)
            early_aborted.extend(record.record.early_aborted)
            read_only_skipped.extend(record.record.read_only_skipped)
        transactions.sort(key=lambda tx: (tx.submitted_at, tx.tx_id))
        observability: Optional[ObservabilityData] = None
        if self.observer is not None:
            block_times = {
                record.index: {
                    block.number: block.created_at for block in record.record.ledger.blocks
                }
                for record in channel_records
            }
            observability = self.observer.collect(block_times, final_time=self.sim.now)
        reference = self.channels[0].network
        return RunRecord(
            # The reference channel's config went through variant.configure()
            # (e.g. Streamchain forces block_size=1), so the aggregate reports
            # the *effective* parameters, same as a single-channel run.
            config=reference.config,
            variant_name=reference.variant.name,
            chaincode_name=reference.chaincode.name,
            workload_name=workload_name,
            arrival_rate=arrival_rate,
            duration=duration,
            seed=self.seed,
            ledger=Ledger(),  # per-channel chains live in channel_records
            transactions=transactions,
            early_aborted=early_aborted,
            read_only_skipped=read_only_skipped,
            simulated_end=self.sim.now,
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
            lifecycle_counts=self.bus.counts_by_name(),
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
            fault_injections=self._merge_fault_stats(channel_records),
            observability=observability,
            isolation=merge_isolation_reports(
                record.record.isolation for record in channel_records
            ),
        )

    @staticmethod
    def _merge_fault_stats(channel_records) -> dict:
        """Sum every channel slice's fault-injection counters."""
        merged: dict = {}
        for record in channel_records:
            for key, count in record.record.fault_injections.items():
                merged[key] = merged.get(key, 0) + count
        return dict(sorted(merged.items()))
