"""A channel group: some of a deployment's channels on one clock and one bus.

The group is the unit every execution plan of
:class:`~repro.channels.network.MultiChannelNetwork` is made of.  It knows
how to *build* its channels' Fabric slices
(:class:`~repro.network.network.Channel`) on one
:class:`~repro.sim.engine.Simulator` and one bus — a sole channel publishes on
the group's bus directly, several channels keep a bus each, piped into it —
with one :class:`~repro.observability.observer.RunObserver` on that bus when
observability is on, how to *start* their client arrivals, and how to
*collect* them into a picklable :class:`GroupResult`.  Who advances the
clock — one drain, a pool worker, the epoch barrier loop — is the plan's
business, not the group's.

A channel's event sequence is a pure function of its own seed-derived stream
family and its own transaction-id sequence (both named by the channel's
``label``), so which group a channel is built in never changes what it
computes.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

from repro.chaincode.base import Chaincode
from repro.channels.channel import ChannelGateway
from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.topology import ChannelRouter, ChannelTopology, ShardedKeyDistribution
from repro.ledger.block import ValidationCode
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.retry import ResubmissionGovernor
from repro.network.config import NetworkConfig
from repro.network.network import Channel, ChannelRecord
from repro.observability.observer import ObservabilityData, RunObserver
from repro.sim.collector import quiet_collector
from repro.sim.engine import Simulator
from repro.sim.profile import EngineProfiler
from repro.sim.rng import RandomStreams
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import CrossChannelMix, TransactionMix


@dataclass(frozen=True)
class GroupSpec:
    """Everything it takes to build one group — picklable, so a pool worker can."""

    config: NetworkConfig
    chaincode_factory: Callable[[], Chaincode]
    variant_factory: Callable[[], object]
    seed: int
    topology: ChannelTopology
    router: ChannelRouter
    cross_channel: CrossChannelMix
    #: The channel indices this group builds, ascending.
    channels: Tuple[int, ...]


class RunArgs(NamedTuple):
    """The arguments of one ``run``, as every group of the plan receives them."""

    mix: TransactionMix
    arrival_rate: float
    duration: float
    key_distribution: Optional[KeyDistribution]
    workload_name: str


@dataclass
class GroupResult:
    """One group's picklable slice of the run, as the merge consumes it."""

    records: List[ChannelRecord]
    #: ``channel index -> raw station accumulators`` (see
    #: :meth:`Channel.station_loads`) for the merge-time horizon fixup.
    loads: Dict[int, dict]
    #: The group simulator's local end time.
    end: float
    #: The group's :meth:`EngineProfiler.report` (``None`` when unprofiled).
    engine: Optional[dict] = None
    observability: Optional[ObservabilityData] = None


class ChannelGroup:
    """The channels ``spec.channels`` of a deployment, on one simulator and bus."""

    def __init__(self, spec: GroupSpec, governor: Optional[ResubmissionGovernor]) -> None:
        self.spec = spec
        self.sim = Simulator()
        #: The one stream the group's observer (and a one-group deployment's
        #: consumers) see.  A sole channel publishes on it directly; several
        #: channels keep a bus each (checker and retry controller listen per
        #: chain) piped into it — only then: a pipe builds no event nobody
        #: reads, but it is still one more bus to count on per emission.
        self.bus = LifecycleBus()
        #: The deployment's resubmission governor (``None``: every slice makes
        #: its own, which is only equivalent while there is no rate cap).
        self.governor = governor
        streams = RandomStreams(spec.seed)
        shares = spec.topology.arrival_shares()
        piped = len(spec.channels) > 1
        self.channels: List[Channel] = []
        for index in spec.channels:
            channel = Channel(
                config=spec.config.copy(),
                chaincode=spec.chaincode_factory(),
                variant=spec.variant_factory(),
                seed=spec.seed,
                sim=self.sim,
                streams=streams,
                bus=LifecycleBus() if piped else self.bus,
                # The one place the single-channel identity is decided.
                label=None if spec.topology.channels == 1 else index,
                arrival_share=shares[index],
            )
            if piped:
                channel.bus.pipe_to(self.bus)
            self.channels.append(channel)
        self.gateways: List[ChannelGateway] = []
        #: One observer for the whole group: its channels share the clock.
        self.observer: Optional[RunObserver] = None
        if spec.config.observability.enabled:
            self.observer = RunObserver(self.sim, self.bus, spec.config.observability)
            for channel in self.channels:
                self.observer.add_queue_probe(
                    channel.queue_probe,
                    lambda orderer=channel.orderer: orderer.pending_count,
                )
                if channel.faults is not None:
                    self.observer.watch_faults(channel.faults)
        self.profiler: Optional[EngineProfiler] = None

    def start_clients(
        self, args: RunArgs, coordinator: Optional[CrossChannelCoordinator] = None
    ) -> None:
        """Schedule every channel's client arrivals for the run."""
        spec = self.spec
        if self.observer is not None:
            self.observer.on_run_start(args.duration)
        self.gateways = [
            ChannelGateway(
                channel=channel,
                router=spec.router,
                cross_channel=spec.cross_channel,
                rng=channel.streams.stream("cross-channel"),
                coordinator=coordinator if spec.cross_channel.enabled else None,
            )
            for channel in self.channels
        ]
        for channel, gateway in zip(self.channels, self.gateways):
            channel.start_clients(
                mix=args.mix,
                arrival_rate=args.arrival_rate * channel.arrival_share,
                duration=args.duration,
                key_distribution=args.key_distribution,
                primary_distribution=ShardedKeyDistribution(
                    topology=spec.topology, channel=channel.index, base=args.key_distribution
                ),
                orderer=gateway,
                retry_governor=self.governor,
            )

    def attach_profiler(self) -> EngineProfiler:
        """An :class:`EngineProfiler` for this group whatever the config says.

        Plans of more than one group want per-group engine statistics for the
        merged summary even when metrics are off; the caller enters the
        returned profiler around its drain.  The one-group plan does *not*
        call this — it leaves profiling to :meth:`RunObserver.profile`, so an
        unobserved run pays no per-batch hook.
        """
        self.profiler = EngineProfiler(self.sim)
        if self.observer is not None:
            self.observer.adopt_profiler(self.profiler)
        return self.profiler

    def collect(self, args: RunArgs) -> GroupResult:
        """Harvest the drained group."""
        records: List[ChannelRecord] = []
        for channel, gateway in zip(self.channels, self.gateways):
            record = channel.collect_record(
                arrival_rate=args.arrival_rate * channel.arrival_share,
                duration=args.duration,
                workload_name=args.workload_name,
            )
            records.append(
                ChannelRecord(
                    index=channel.index,
                    name=channel.name,
                    record=record,
                    cross_channel_submitted=gateway.cross_channel_submitted,
                    cross_channel_aborted=sum(
                        1
                        for tx in record.early_aborted
                        if tx.validation_code is ValidationCode.CROSS_CHANNEL_ABORT
                    ),
                )
            )
        observability: Optional[ObservabilityData] = None
        if self.observer is not None:
            block_times = {
                channel.label: {
                    block.number: block.created_at for block in channel.ledger.blocks
                }
                for channel in self.channels
            }
            observability = self.observer.collect(block_times, final_time=self.sim.now)
        return GroupResult(
            records=records,
            loads={channel.index: channel.station_loads() for channel in self.channels},
            end=self.sim.now,
            engine=self.profiler.report() if self.profiler is not None else None,
            observability=observability,
        )


def simulate_group(
    spec: GroupSpec, args: RunArgs, governor: Optional[ResubmissionGovernor] = None
) -> GroupResult:
    """Build one independent group, drain it on its own clock and collect it."""
    group = ChannelGroup(spec, governor)
    group.start_clients(args)
    with group.attach_profiler():
        group.sim.run_until_empty()
    return group.collect(args)


@quiet_collector()
def simulate_group_to_bytes(task: Tuple[GroupSpec, RunArgs]) -> bytes:
    """Pool worker entry point (module level, so it pickles across the pool).

    Only the shards the deploying process does not drain itself come here.

    The worker serialises its own result, inside the collector scope that
    covered the simulation, and hands the pool opaque ``bytes``: pickling a
    group's retained transactions allocates per record, and left to the pool
    it would run after this function returned — outside any scope, with full
    collections re-walking the heap it is dumping.  One ``dumps`` call also
    means one memo, so the read/write set an endorsement shares with its
    transaction crosses the boundary once.
    """
    return pickle.dumps(simulate_group(*task), protocol=pickle.HIGHEST_PROTOCOL)
