"""The Fabric deployment: channel groups, a plan, one merge.

:class:`MultiChannelNetwork` is the one deployment class and the one ``run``:
it builds one complete Fabric slice per channel
(:class:`~repro.network.network.Channel`: ledger, state store, ordering
service, peers), partitions the key space across the channels with a
:class:`~repro.channels.topology.ChannelTopology`, routes the configured
fraction of transactions through the
:class:`~repro.channels.coordinator.CrossChannelCoordinator`, and returns an
aggregate :class:`~repro.network.network.RunRecord` carrying one
:class:`~repro.network.network.ChannelRecord` per channel.  The
single-channel network of the paper is its one-channel plan — ``shared-clock``
with one group of one channel, no coordinator — whose merged record *is* that
channel's record (``ledger`` populated, ``channel_records`` empty).

**Group, plan, merge.**  The channels are built in *channel groups*
(:class:`~repro.channels.group.ChannelGroup`: a subset of the channels on one
simulator clock and one bus).  The *plan* — which groups there are and who
advances their clocks — is a pure function of ``config.execution`` and
:func:`repro.sim.shard.plan_shards` (see :func:`plan_groups`):

``shared-clock``
    One in-process group holding every channel.  Independent channels simulate
    concurrently (their events interleave in global virtual-time order) and
    cross-channel hops are ordinary events on the one clock.  The default,
    the reference semantics, and what every configuration that cannot
    partition runs as: a coupled topology (any positive cross-channel rate
    with ``uniform`` partners), a single-shard plan (one channel is one), or a
    *global* resubmission rate cap (one token bucket cannot be split across
    processes).
``sharded``
    One group per shard of the cross-channel traffic graph, each drained to
    completion on its own clock by one of N processes, this one included: it
    drains shards 0, N, 2N, ... and a pool of N - 1 workers the rest.  All of
    them run here when N is 1 or the factories do not pickle.  With
    no cross traffic a channel's event sequence is a pure function of its own
    streams and transaction ids, so the merged record is *bit-identical* to
    the shared clock (asserted by the golden bit-identity suite); only
    ``RunRecord.execution`` / ``shard_count`` and wall-clock observability
    detail differ.
``sharded-conservative``
    One in-process group per channel plus a barrier loop: the clocks advance
    in lock-step epochs of width ``timing.cross_channel_prepare`` (the minimum
    cross-channel hop service time — the classic conservative-PDES lookahead
    bound) and two-phase prepare/commit hops cross groups only at epoch
    boundaries.  A *distinct* simulation semantics — deterministic and
    golden-pinned separately, never claimed identical to the shared clock.

Every plan ends in :func:`repro.channels.merge.merge_group_results`.

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

import math
import multiprocessing
import pickle
import time
from contextlib import ExitStack
from typing import Callable, List, Optional, Tuple

from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.group import (
    ChannelGroup,
    GroupResult,
    GroupSpec,
    RunArgs,
    simulate_group,
    simulate_group_to_bytes,
)
from repro.channels.merge import merge_engine_reports, merge_group_results
from repro.channels.topology import ChannelRouter, ChannelTopology
from repro.chaincode.base import Chaincode
from repro.errors import ConfigurationError
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.retry import ResubmissionGovernor
from repro.network.config import NetworkConfig
from repro.network.network import Channel, RunRecord
from repro.sim.collector import quiet_collector
from repro.sim.rng import RandomStreams
from repro.sim.shard import plan_shards, resolve_worker_count
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import CrossChannelMix, TransactionMix


def plan_groups(
    config: NetworkConfig, partner_strategy: str = "uniform"
) -> Tuple[str, Tuple[Tuple[int, ...], ...]]:
    """The execution plan of ``config``: ``(execution mode, channels per group)``."""
    if config.execution.conservative:
        return "sharded-conservative", tuple((index,) for index in range(config.channels))
    shards = plan_shards(config.channels, config.cross_channel_rate, partner_strategy)
    # The resubmission rate cap is one token bucket across *all* channels;
    # slicing it per process would change admission decisions.
    rate_capped = config.retry.enabled and config.retry.rate_cap is not None
    if config.execution.shard_workers != 1 and shards.is_partitioned and not rate_capped:
        return "sharded", shards.shards
    return "shared-clock", (tuple(range(config.channels)),)


class MultiChannelNetwork:
    """N >= 1 Fabric channels sharded over the key space, run by one execution plan.

    ``execution_mode`` names the plan from construction on.  On the
    shared-clock plan ``sim``, ``bus`` and ``channels`` are the one group's —
    an :class:`~repro.sim.profile.EngineProfiler` attached to ``sim`` before
    :meth:`run` observes the whole run.  On the conservative plan ``sim`` is
    ``None`` (there is one clock per channel), ``bus`` receives every group's
    events and ``channels`` lists every channel; on the sharded plan the
    groups live where they run, so ``channels`` is empty, ``bus`` stays silent
    and ``coordinator`` is ``None`` (a topology that partitions has no cross
    traffic) — what happened surfaces in the record.
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
        self.config = config
        self.seed = seed
        self.streams = RandomStreams(seed)
        self.topology = ChannelTopology(
            channels=config.channels, placement=config.placement, hot_share=hot_share
        )
        self.router = ChannelRouter(self.topology)
        self.cross_channel = CrossChannelMix(
            rate=config.cross_channel_rate, partner_strategy=partner_strategy
        )
        #: One governor for the whole deployment, handed to every in-process
        #: group: the resubmission rate cap is global, not per channel slice.
        #: (Pool workers cannot share it, which is why a capped configuration
        #: never plans a pool.)
        self.retry_governor = (
            ResubmissionGovernor(config.retry.rate_cap) if config.retry.enabled else None
        )
        self.execution_mode, parts = plan_groups(config, partner_strategy)
        self._specs = [
            GroupSpec(
                config=config,
                chaincode_factory=chaincode_factory,
                variant_factory=variant_factory,
                seed=seed,
                topology=self.topology,
                router=self.router,
                cross_channel=self.cross_channel,
                channels=part,
            )
            for part in parts
        ]
        #: The in-process groups, built here so that their simulators can be
        #: instrumented before :meth:`run`.  Empty on the sharded plan, whose
        #: groups are built where they run (a pool worker, or :meth:`run`).
        self.groups: List[ChannelGroup] = (
            []
            if self.execution_mode == "sharded"
            else [ChannelGroup(spec, self.retry_governor) for spec in self._specs]
        )
        self.channels: List[Channel] = [
            channel for group in self.groups for channel in group.channels
        ]
        if len(self.groups) == 1:
            self.sim = self.groups[0].sim
            #: Deployment-wide lifecycle event stream.  One group: its bus.
            self.bus = self.groups[0].bus
        else:
            self.sim = None
            self.bus = LifecycleBus()
            for group in self.groups:
                group.bus.pipe_to(self.bus)
        #: Two-phase commit needs two channels in this process: ``None`` for a
        #: one-channel deployment and on the sharded plan.
        self.coordinator: Optional[CrossChannelCoordinator] = (
            CrossChannelCoordinator(
                channels=self.channels,
                rng=self.streams.stream("coordinator"),
                outbox=None if len(self.groups) == 1 else [],
            )
            if len(self.channels) > 1
            else None
        )
        #: Filled by :meth:`run`: processes that simulated (this one included),
        #: pickled result bytes the pool sent back (0 when every group ran
        #: in-process; this process's own shards cross nothing) and
        #: the merged engine profile of the plan's per-group profilers (also
        #: embedded in the record's observability summary; ``None`` on the
        #: shared-clock plan, which attaches none).
        self.shard_workers_used = 0
        self.shard_transport_bytes = 0
        self.engine_summary: Optional[dict] = None

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
        args = RunArgs(mix, arrival_rate, duration, key_distribution, workload_name)
        drain = {
            "shared-clock": self._drain_shared_clock,
            "sharded": self._drain_shards,
            "sharded-conservative": self._drain_epochs,
        }[self.execution_mode]
        started = time.perf_counter()
        results = drain(args)
        wall_seconds = time.perf_counter() - started
        reports = [result.engine for result in results if result.engine is not None]
        if reports:
            self.engine_summary = merge_engine_reports(reports, wall_seconds)
        return merge_group_results(
            results,
            config=self.config,
            seed=self.seed,
            args=args,
            wall_seconds=wall_seconds,
            execution=self.execution_mode,
        )

    # ------------------------------------------------------------------ plans
    def _drain_shared_clock(self, args: RunArgs) -> List[GroupResult]:
        (group,) = self.groups
        self.shard_workers_used = 1
        group.start_clients(args, self.coordinator)
        if group.observer is not None:
            with group.observer.profile():
                group.sim.run_until_empty()
        else:
            group.sim.run_until_empty()
        return [group.collect(args)]

    def _drain_shards(self, args: RunArgs) -> List[GroupResult]:
        specs = self._specs
        self.shard_transport_bytes = 0
        workers = resolve_worker_count(self.config.execution.shard_workers, len(specs))
        # This process is one of the ``workers``: it simulates shards 0, N,
        # 2N, ... itself and ships the others to a pool of N - 1.
        shipped = [index for index in range(len(specs)) if index % workers]
        tasks = [(specs[index], args) for index in shipped]
        if workers > 1:
            try:
                pickle.dumps(tasks)
            except Exception:
                # Unpicklable factories (lambdas, closures) run in-process —
                # same results, no process parallelism; mirrors the runner.
                workers = 1
        self.shard_workers_used = workers
        if workers == 1:
            return [simulate_group(spec, args, self.retry_governor) for spec in specs]
        results: List[Optional[GroupResult]] = [None] * len(specs)
        with multiprocessing.Pool(processes=workers - 1) as pool:
            blobs = pool.imap(simulate_group_to_bytes, tasks)
            for index in range(0, len(specs), workers):
                results[index] = simulate_group(specs[index], args, self.retry_governor)
            for index, blob in zip(shipped, blobs):
                self.shard_transport_bytes += len(blob)
                results[index] = pickle.loads(blob)
        return results

    def _drain_epochs(self, args: RunArgs) -> List[GroupResult]:
        self.shard_workers_used = 1
        width = self.config.timing.cross_channel_prepare
        if width <= 0:
            raise ConfigurationError(
                "conservative execution needs a positive cross_channel_prepare "
                f"lookahead, got {width}"
            )
        # The groups only interact through the coordinator's outbox, which
        # the barrier loop below drains once per epoch.  One group per
        # channel, so a message's target channel index is its group's index.
        for group in self.groups:
            group.start_clients(args, self.coordinator)
        outbox = self.coordinator.outbox
        with ExitStack() as profilers:
            # Each group's profiler stays attached across every epoch slice;
            # its wall-clock window spans the whole barrier loop (the groups
            # interleave on one OS thread, so per-group wall time is not
            # separable).
            for group in self.groups:
                profilers.enter_context(group.attach_profiler())
            barrier = 0.0
            while True:
                for message in outbox:
                    self.groups[message.target].sim.post_at(
                        max(message.deliver_at, barrier), message.callback, *message.args
                    )
                del outbox[:]
                next_time = min(group.sim.next_event_time for group in self.groups)
                if next_time == math.inf:
                    break
                # Jump straight to the epoch containing the next event — the
                # barrier stays on the k*width grid (message delivery times
                # are a function of that grid, so determinism requires never
                # leaving it) but runs of provably empty epochs are skipped
                # outright.
                barrier = max(barrier + width, math.ceil(next_time / width) * width)
                for group in self.groups:
                    group.sim.run(until=barrier)
        return [group.collect(args) for group in self.groups]
