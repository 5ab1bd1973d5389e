"""The one merge: per-group results into the deployment's aggregate record.

Every execution plan of :class:`~repro.channels.network.MultiChannelNetwork`
ends here, so the aggregate :class:`~repro.network.network.RunRecord` is
assembled by the same arithmetic whichever plan ran: channel records in
channel-index order, transactions re-sorted by ``(submitted_at, tx_id)``,
``simulated_end`` the maximum group end time, station utilizations recomputed
bitwise from raw busy-time accumulators over the deployment-wide horizon
(:meth:`~repro.network.network.Channel.station_loads` — a group's own
clock stops at its own last event), counters summed key-wise.  For one group
holding every channel each of those steps is the identity on what the group
already computed, and the merge of a one-channel deployment is that channel's
own record.
"""

from __future__ import annotations

from operator import attrgetter
from typing import Dict, List, Optional, Tuple

from repro.channels.group import GroupResult, RunArgs
from repro.checker.checker import merge_isolation_reports
from repro.errors import SimulationError
from repro.ledger.block import Transaction
from repro.ledger.ledger import Ledger
from repro.network.config import NetworkConfig
from repro.network.network import ChannelRecord, RunRecord
from repro.observability.observer import ObservabilityData
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


def merge_engine_reports(reports: List[dict], wall_seconds: float) -> dict:
    """One deployment-wide engine summary from per-group profiler reports.

    Event and batch counts sum; ``wall_seconds`` is the parent-measured
    elapsed time over the whole plan (so ``events_per_sec`` reflects real
    parallel throughput, not the sum of per-group rates); queue-depth
    histograms sum bucket-wise and the maximum depth is the max over groups.
    The untouched per-group reports ride along under ``"shards"``.
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
    """One deployment-wide :class:`ObservabilityData` from per-group data.

    A single part is returned unchanged: one observer saw the whole
    deployment, so its summary is already the deployment's (and keeps the
    exact sketch-derived histograms a merge cannot reproduce).  Otherwise:

    * **Spans** concatenate in group (channel-index) order, so the Chrome
      trace exporter's sequential thread ids form one contiguous tid range
      per group under a single run pid.
    * **Samples** merge by tick time: groups sample on the same sim-time
      grid, and their counter columns (rates, pending events) sum; the
      per-channel queue columns are disjoint and union.
    * **Markers** concatenate and re-sort exactly like a single observer.
    * **Summary** counters sum key-wise; histogram sketches cannot be merged
      exactly, so the merged view reports the exactly mergeable moments
      (count/min/max/mean) and the complete per-group summaries ride along
      under ``"shards"``.
    """
    if len(parts) == 1:
        return parts[0]
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
    wall_seconds: float,
    execution: str,
) -> RunRecord:
    """The deployment's aggregate record from its groups' results."""
    channel_records = _records_by_channel(results, config.channels)
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
    transactions: List[Transaction] = []
    early_aborted: List[Transaction] = []
    read_only_skipped: List[Transaction] = []
    for channel_record in channel_records:
        transactions.extend(channel_record.record.transactions)
        early_aborted.extend(channel_record.record.early_aborted)
        read_only_skipped.extend(channel_record.record.read_only_skipped)
    transactions.sort(key=attrgetter("submitted_at", "tx_id"))
    observability: Optional[ObservabilityData] = None
    parts = [result.observability for result in results]
    if all(part is not None for part in parts):
        observability = merge_observability(parts, wall_seconds)
    reference = channel_records[0].record
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
        retry_policy=config.retry.policy,
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
        shard_count=len(results),
    )
