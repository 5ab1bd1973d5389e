"""A channel group: some of a deployment's channels on one clock.

The group is the unit every execution plan of
:class:`~repro.channels.network.MultiChannelNetwork` is made of.  It knows
how to *build* its channels' Fabric slices
(:class:`~repro.network.network.Channel`, each with its own lifecycle bus) on
one :class:`~repro.sim.engine.Simulator`, with one
:class:`~repro.observability.observer.RunObserver` handling every
channel's bus when observability is on; and how to *run* them: start their
client arrivals, drain the clock (profiled by the observer, when there is
one) and collect them into a picklable :class:`GroupResult` — each channel's
record and its closed tally, never its transactions.  Where a group runs — the
deploying process or a pool worker — is the plan's business, not the group's.

A channel's event sequence is a pure function of its own seed-derived stream
family and its own transaction-id sequence (both named by the channel's
``label``), so which group a channel is built in never changes what it
computes.
"""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, NamedTuple, Optional, Tuple

from repro.chaincode import create_chaincode
from repro.channels.channel import ChannelGateway
from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.topology import ChannelRouter, ChannelTopology, ShardedKeyDistribution
from repro.fabric.variant import create_variant
from repro.lifecycle.retry import ResubmissionGovernor
from repro.lifecycle.tally import ChannelTally
from repro.network.config import NetworkConfig
from repro.network.network import Channel, ChannelRecord
from repro.observability.observer import ObservabilityData, RunObserver
from repro.sim.collector import quiet_collector
from repro.sim.engine import Simulator
from repro.sim.rng import RandomStreams
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import CrossChannelMix, TransactionMix


@dataclass(frozen=True)
class GroupSpec:
    """Everything it takes to build one group — picklable, so a pool worker can."""

    config: NetworkConfig
    #: The registered chaincode every channel builds, and its constructor arguments.
    chaincode: str
    chaincode_kwargs: Mapping[str, Any]
    #: The registered Fabric variant every channel builds.
    variant: str
    seed: int
    topology: ChannelTopology
    router: ChannelRouter
    cross_channel: CrossChannelMix
    #: The channel indices this group builds, ascending.
    channels: Tuple[int, ...]
    #: Keep every channel's chain (see :class:`~repro.lifecycle.recorder.ChainRecorder`).
    record_chain: bool = False


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
    #: ``channel index -> closed tally``, for the fold across channels.
    tallies: Dict[int, ChannelTally]
    #: ``channel index -> raw station accumulators`` (see
    #: :meth:`Channel.station_loads`) for the merge-time horizon fixup.
    loads: Dict[int, dict]
    #: The group simulator's local end time.
    end: float
    observability: Optional[ObservabilityData] = None


class ChannelGroup:
    """The channels ``spec.channels`` of a deployment, on one simulator."""

    def __init__(self, spec: GroupSpec, governor: Optional[ResubmissionGovernor]) -> None:
        self.spec = spec
        self.sim = Simulator()
        streams = RandomStreams(spec.seed)
        shares = spec.topology.arrival_shares()
        self.channels: List[Channel] = [
            Channel(
                config=spec.config.copy(),
                chaincode=create_chaincode(spec.chaincode, **spec.chaincode_kwargs),
                variant=create_variant(spec.variant),
                seed=spec.seed,
                sim=self.sim,
                streams=streams,
                # The one place the single-channel identity is decided.
                label=None if spec.topology.channels == 1 else index,
                arrival_share=shares[index],
                record_chain=spec.record_chain,
                # The deployment's resubmission governor (``None``: every slice
                # makes its own, which is only equivalent while there is no
                # rate cap).
                retry_governor=governor,
            )
            for index in spec.channels
        ]
        self.gateways: List[ChannelGateway] = []
        #: One observer for the whole group: its channels share the clock.
        self.observer: Optional[RunObserver] = None
        if spec.config.observability.enabled:
            self.observer = RunObserver(
                self.sim,
                [channel.bus for channel in self.channels],
                spec.config.observability,
                cut_times=[channel.ledger.cut_time for channel in self.channels],
            )
            for channel in self.channels:
                self.observer.add_queue_probe(
                    channel.queue_probe,
                    lambda orderer=channel.orderer: orderer.pending_count,
                )
                if channel.faults is not None:
                    self.observer.watch_faults(channel.faults)

    def run(
        self, args: RunArgs, coordinator: Optional[CrossChannelCoordinator] = None
    ) -> GroupResult:
        """Start the clients, drain the clock and collect the group."""
        self.start_clients(args, coordinator)
        if self.observer is not None:
            with self.observer.profile():
                self.sim.run_until_empty()
        else:
            self.sim.run_until_empty()
        return self.collect(args)

    def start_clients(
        self, args: RunArgs, coordinator: Optional[CrossChannelCoordinator]
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
            )

    def collect(self, args: RunArgs) -> GroupResult:
        """Harvest the drained group: each channel's record and closed tally."""
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
                    cross_channel_aborted=record.tally.cross_channel_aborted,
                )
            )
        observability: Optional[ObservabilityData] = None
        if self.observer is not None:
            observability = self.observer.collect(final_time=self.sim.now)
        return GroupResult(
            records=records,
            tallies={channel.index: channel.tally for channel in self.channels},
            loads={channel.index: channel.station_loads() for channel in self.channels},
            end=self.sim.now,
            observability=observability,
        )


def simulate_group(
    spec: GroupSpec, args: RunArgs, governor: Optional[ResubmissionGovernor] = None
) -> GroupResult:
    """Build one independent group, drain it on its own clock and collect it."""
    return ChannelGroup(spec, governor).run(args)


@quiet_collector()
def simulate_group_to_file(task: Tuple[GroupSpec, RunArgs, str]) -> int:
    """Pool worker entry point (module level, so it pickles across the pool).

    Only the shards the deploying process does not drain itself come here.

    The worker pickles its own result into the file ``task`` names and hands
    the pool only the file's size: a result sent back through the pool's
    pipe is read by the deploying process's result-handler thread one
    pipe-sized chunk at a time, each waiting for the interpreter lock that
    process's own simulation holds — the worker would block until its last
    chunk is read.
    """
    spec, args, path = task
    result = simulate_group(spec, args)
    with open(path, "wb") as file:
        pickle.dump(result, file, protocol=pickle.HIGHEST_PROTOCOL)
        return file.tell()
