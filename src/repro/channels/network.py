"""The Fabric deployment: channel groups, a plan, one merge.

:class:`MultiChannelNetwork` is the one deployment class and the one ``run``:
it plans the channels into groups, has each group build its complete Fabric
slices (:class:`~repro.network.network.Channel`: ledger, state store,
ordering service, peers) together with whatever couples them — the key-space
:class:`~repro.channels.topology.ChannelTopology`, the resubmission governor
and the :class:`~repro.channels.coordinator.CrossChannelCoordinator` that
carries the configured fraction of cross-channel transactions — and returns
an aggregate :class:`~repro.network.network.RunRecord` carrying one
:class:`~repro.network.network.ChannelRecord` per channel.  The
single-channel network of the paper is its one-channel plan — ``shared-clock``
with one group of one channel, no coordinator — whose merged record *is* that
channel's record (its tally, its chain when recorded, ``channel_records``
empty).

**Group, plan, merge.**  The channels are built in *channel groups*
(:class:`~repro.channels.group.ChannelGroup`: a subset of the channels on one
simulator clock, each channel with its own lifecycle bus).  The *plan* — which
groups there are and who advances their clocks — is one rule over the config
(:func:`plan_groups`):

``shared-clock``
    One in-process group holding every channel.  Its channels simulate
    concurrently (their events interleave in global virtual-time order) and
    cross-channel hops are ordinary events on the one clock.  The reference
    semantics, and what every configuration that couples its channels runs
    as: one channel, any positive cross-channel rate (a partner is drawn
    uniformly from every other channel, so the two-phase prepare connects
    every channel to every other), a *global* resubmission
    rate cap (one token bucket cannot be split across clocks), an observer
    (its sample grids end where each clock does) or a recorded chain (its
    transactions stay in the process that reads them).
``sharded``
    One group (shard) per channel, each drained to completion on its own
    clock: the plan of every multi-channel deployment nothing couples.
    ``shard_workers`` only counts the processes that drain the shards: the
    default 1 drains them all here, one at a time; N >= 2 hands every shard,
    in shard order, to a pool of N workers while this process waits for their
    results (inside a runner worker, N is capped by that worker's share of
    the cores, :mod:`repro.sim.shard`).  A shard is
    specified by data — the chaincode and variant by registry name — so every
    shard can ship.  With no cross traffic a channel's
    event sequence is a pure function of its own streams and transaction ids,
    so the merged record is *bit-identical* to the shared clock (asserted by
    the golden bit-identity suite); only ``RunRecord.execution`` /
    ``shard_count`` differ.  One clock per channel keeps each queue and each
    channel's working set small, and a group is dropped once it has run.

Both plans drain every group the same way
(:meth:`~repro.channels.group.ChannelGroup.run`) and end in
:func:`repro.channels.merge.merge_group_results`.

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

from typing import Any, List, Mapping, Optional, Tuple

from repro.channels.group import (
    ChannelGroup,
    GroupResult,
    GroupSpec,
    RunArgs,
    simulate_group,
)
from repro.channels.merge import merge_group_results
from repro.errors import ConfigurationError, SimulationError
from repro.network.config import NetworkConfig
from repro.network.network import Channel, RunRecord
from repro.sim.collector import quiet_collector
from repro.sim.shard import process_pool, resolve_worker_count
from repro.workload.distributions import KeyDistribution
from repro.workload.spec import TransactionMix


def plan_groups(
    config: NetworkConfig, record_chain: bool = False
) -> Tuple[str, Tuple[Tuple[int, ...], ...]]:
    """The execution plan of ``config``: ``(execution mode, channels per group)``.

    Channels run apart only when nothing couples them: no cross traffic (a
    partner is any other channel, so it connects all of them), no
    resubmission rate cap (one token bucket across all channels, which a
    process cannot slice), no observer (one sample grid on one clock, which
    per-shard grids are not) and no recorded chain (a shard ships its tally,
    never its transactions).
    """
    rate_capped = config.retry.enabled and config.retry.rate_cap is not None
    if (
        config.channels > 1
        and config.cross_channel_rate == 0
        and not rate_capped
        and not config.observability.enabled
        and not record_chain
    ):
        return "sharded", tuple((index,) for index in range(config.channels))
    return "shared-clock", (tuple(range(config.channels)),)


class MultiChannelNetwork:
    """N >= 1 Fabric channels sharded over the key space, run by one execution plan.

    ``execution_mode`` names the plan from construction on.  On the
    shared-clock plan ``sim`` and ``channels`` are the one group's — an
    :class:`~repro.sim.profile.EngineProfiler` attached to ``sim`` before
    :meth:`run` observes the whole run, and each channel's ``bus`` carries
    its events.  On the sharded plan the groups live where they run, so
    ``group`` and ``sim`` are ``None`` and ``channels`` is empty — what
    happened surfaces in the record.

    ``record_chain`` keeps every channel's blocks and attempts for a consumer
    of the chain (see :class:`~repro.lifecycle.recorder.ChainRecorder`); a
    recorded run is one group on the shared clock.
    """

    def __init__(
        self,
        config: NetworkConfig,
        chaincode: str,
        variant: str,
        chaincode_kwargs: Optional[Mapping[str, Any]] = None,
        seed: int = 7,
        record_chain: bool = False,
    ) -> None:
        config = config.copy()
        config.validate()
        self.config = config
        self.seed = seed
        self.execution_mode, parts = plan_groups(config, record_chain)
        self._specs = [
            GroupSpec(
                config=config,
                chaincode=chaincode,
                chaincode_kwargs=dict(chaincode_kwargs or {}),
                variant=variant,
                seed=seed,
                channels=part,
                record_chain=record_chain,
            )
            for part in parts
        ]
        #: The shared-clock plan's one group, built here so that its simulator
        #: can be instrumented before :meth:`run`.  ``None`` on the sharded
        #: plan, whose groups are built where they run (a pool worker, or
        #: :meth:`run`).
        self.group: Optional[ChannelGroup] = (
            None if self.execution_mode == "sharded" else ChannelGroup(self._specs[0])
        )
        group = self.group
        self.sim = group.sim if group else None
        self.channels: List[Channel] = list(group.channels) if group else []

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
        if self.group is None:
            results = self._drain_shards(args)
        else:
            results = [self.group.run(args)]
        return merge_group_results(
            results,
            config=self.config,
            seed=self.seed,
            args=args,
            execution=self.execution_mode,
        )

    # --------------------------------------------------------------- shards
    def _drain_shards(self, args: RunArgs) -> List[GroupResult]:
        specs = self._specs
        workers = resolve_worker_count(self.config.execution.shard_workers, len(specs))
        if workers == 1:
            return [simulate_group(spec, args) for spec in specs]
        from concurrent.futures.process import BrokenProcessPool  # loaded with the pool

        # The pool simulates every shard and this process only waits, so the
        # results come back through the pool's pipe as they are ready.
        with process_pool(workers) as pool:
            futures = []
            try:
                for spec in specs:
                    futures.append(pool.submit(simulate_group, spec, args))
                return [future.result() for future in futures]
            except BrokenProcessPool as error:
                # A worker died: name the first queued shard it took down, else
                # (every queued shard returned) the one the pool refused.
                lost = next(
                    (index for index, future in enumerate(futures) if future.exception()),
                    len(futures),
                )
                raise _lost_shard(specs[lost]) from error


def _lost_shard(spec: GroupSpec) -> SimulationError:
    """The error of a shard whose pool worker process died."""
    channels = ", ".join(map(str, spec.channels))
    return SimulationError(
        f"the shard worker process of channel(s) {channels} died before returning its shard"
    )
