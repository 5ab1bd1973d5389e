"""The one merge: per-group results into the deployment's aggregate record.

Every execution plan of :class:`~repro.channels.network.MultiChannelNetwork`
ends here, so the aggregate :class:`~repro.network.network.RunRecord` is
assembled by the same arithmetic whichever plan ran: channel records in
channel-index order, the channels' tallies folded as one in ``(submitted_at,
tx_id)`` order (:func:`~repro.lifecycle.tally.fold`; a recorded run's
transactions are listed in that order too), ``simulated_end`` the maximum
group end time, station utilizations recomputed bitwise from raw busy-time
accumulators over the deployment-wide horizon
(:meth:`~repro.network.network.Channel.station_loads` — a group's own
clock stops at its own last event), counters summed key-wise.  For one group
holding every channel each of those steps is the identity on what the group
already computed, and the merge of a one-channel deployment is that channel's
own record.  Observations are never merged: an observed run is one group on
one clock (:func:`~repro.channels.network.plan_groups`), taken as it is, and
observations from several groups are refused.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.channels.group import GroupResult, RunArgs
from repro.checker.checker import merge_isolation_reports
from repro.errors import SimulationError
from repro.ledger.ledger import Ledger
from repro.lifecycle.tally import ChannelTally, fold
from repro.network.config import NetworkConfig
from repro.network.network import Chain, ChannelRecord, RunRecord
from repro.sim.stats import mean


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


def _records_by_channel(results: List[GroupResult], channels: int) -> List[ChannelRecord]:
    """Every channel's record, in index order — or refuse the input.

    Two records for one channel, or none for another, mean the plan and the
    groups disagree about who owns what; summing such input would produce a
    plausible-looking wrong aggregate.
    """
    by_channel: Dict[int, ChannelRecord] = {}
    for result in results:
        for record in result.records:
            if record.index in by_channel:
                raise SimulationError(
                    f"channel {record.index} was collected by more than one group"
                )
            by_channel[record.index] = record
    for index in range(channels):
        if index not in by_channel:
            raise SimulationError(f"channel {index} was collected by no group")
    if len(by_channel) != channels:
        stray = max(by_channel)
        raise SimulationError(
            f"channel {stray} is outside this deployment of {channels} channels"
        )
    return [by_channel[index] for index in range(channels)]


def merge_group_results(
    results: List[GroupResult],
    config: NetworkConfig,
    seed: int,
    args: RunArgs,
    execution: str,
) -> RunRecord:
    """The deployment's aggregate record from its groups' results."""
    channel_records = _records_by_channel(results, config.channels)
    if len(results) > 1 and any(result.observability is not None for result in results):
        raise SimulationError("an observed run is one group on one clock, not several")
    if len(channel_records) == 1:
        # One channel *is* the deployment, so its record is the result: every
        # consumer keeps the single-channel shape and measures the chain once.
        record = channel_records[0].record
        record.observability = results[0].observability
        return record
    loads: Dict[int, dict] = {}
    for result in results:
        loads.update(result.loads)
    global_end = max(result.end for result in results)
    horizon = max(args.duration, global_end)
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
    runs = [channel_record.record for channel_record in channel_records]
    tallies: Dict[int, ChannelTally] = {}
    for result in results:
        tallies.update(result.tallies)
    chain: Optional[Chain] = None
    if all(run.chain is not None for run in runs):
        chain = Chain(
            ledger=Ledger(),  # per-channel chains live in channel_records
            transactions=sorted(
                (tx for run in runs for tx in run.transactions),
                key=attrgetter("submitted_at", "tx_id"),
            ),
            early_aborted=[tx for run in runs for tx in run.early_aborted],
            read_only_skipped=[tx for run in runs for tx in run.read_only_skipped],
        )
    reference = runs[0]
    return RunRecord(
        # The reference channel's config went through variant.configure()
        # (e.g. Streamchain forces block_size=1), so the aggregate reports
        # the *effective* parameters, same as a single-channel run.
        config=reference.config,
        variant_name=reference.variant_name,
        chaincode_name=reference.chaincode_name,
        workload_name=args.workload_name,
        arrival_rate=args.arrival_rate,
        duration=args.duration,
        seed=seed,
        tally=fold([tallies[index] for index in range(config.channels)]),
        simulated_end=global_end,
        blocks_cut=sum(run.blocks_cut for run in runs),
        orderer_utilization=mean(run.orderer_utilization for run in runs),
        mean_validation_utilization=mean(run.mean_validation_utilization for run in runs),
        mean_endorsement_utilization=mean(run.mean_endorsement_utilization for run in runs),
        channel_records=channel_records,
        lifecycle_counts=_merge_counts([run.lifecycle_counts for run in runs]),
        retry_policy=config.retry.policy,
        resubmissions=sum(run.resubmissions for run in runs),
        retries_exhausted=sum(run.retries_exhausted for run in runs),
        retry_budget_denied=sum(run.retry_budget_denied for run in runs),
        retry_rate_denied=sum(run.retry_rate_denied for run in runs),
        fault_injections=_merge_counts([run.fault_injections for run in runs]),
        observability=results[0].observability,
        isolation=merge_isolation_reports(run.isolation for run in runs),
        execution=execution,
        shard_count=len(results),
        chain=chain,
    )
