"""Reference derivation of the Section 4.5 metrics: the paper's parse of the chain.

The product takes its metrics from a tally kept as each attempt ends
(``repro.lifecycle.tally``) and keeps no transaction it is done with.  This
module is the independent derivation it is checked against: the pass over a
*recorded* run's transactions and ledgers that the product made before the
tally existed, verbatim in its arithmetic — one walk per record in record
order, every mean a ``sum()`` over the complete sample sequence in that order
— except the latency quantiles, which are exact: ``quantiles`` over the
recorded chain's latencies, the definition the product must meet.  Imported
by bare module name, like ``failure_oracle``.
"""

from __future__ import annotations

from array import array
from collections import Counter, defaultdict
from functools import partial
from typing import Dict, Iterable, List, NamedTuple, Optional, Tuple

from repro.core.analyzer import ExperimentAnalysis
from repro.core.failures import CONFLICT_CODES, failure_type_of
from repro.core.metrics import ExperimentMetrics, FailureReport
from repro.ledger.block import Transaction
from repro.network.network import RunRecord
from repro.observability.spans import LIFECYCLE_STAGES, stage_durations
from repro.sim.stats import percentile, quantiles

#: ``channel -> block number -> block cut time`` (``None`` keys the one
#: channel of a single-channel run, whose transactions carry no label).
BlockTimes = Dict[Optional[int], Dict[int, float]]


class Walk(NamedTuple):
    """What the metrics read off ``record.transactions``."""

    last_commit: float
    logical_requests: int
    committed_requests: int
    average_latency: float
    latency_quantiles: Dict[str, float]
    function_call_latency_ms: Dict[str, float]
    stage_latency: Dict[str, Dict[str, float]]
    read_only: int


def block_times_of(record: RunRecord) -> BlockTimes:
    """Block-cut times per channel, for the block-wait/consensus stage split."""
    if record.channel_records:
        return {
            channel.index: {
                block.number: block.created_at for block in channel.record.ledger.blocks
            }
            for channel in record.channel_records
        }
    return {None: {block.number: block.created_at for block in record.ledger.blocks}}


def walk(record: RunRecord, block_times: BlockTimes) -> Walk:
    """Every per-transaction metric of one recorded record, from one pass over it."""
    skipped = {tx.tx_id for tx in record.read_only_skipped}
    last_commit = 0.0
    read_only = 0
    committed_by_origin: Dict[str, bool] = {}
    latencies = array("d")
    call_seconds: Dict[str, float] = defaultdict(float)
    call_counts: Dict[str, int] = defaultdict(int)
    stage_samples: Dict[str, array] = defaultdict(partial(array, "d"))
    for tx in record.transactions:
        read_only += tx.read_only
        if tx.tx_id not in skipped:
            origin = tx.origin_id
            if tx.is_committed:
                committed_by_origin[origin] = True
            elif origin not in committed_by_origin:
                committed_by_origin[origin] = False
        committed_at = tx.committed_at
        if committed_at is not None:
            if committed_at > last_commit:
                last_commit = committed_at
            latency = committed_at - tx.submitted_at
            latencies.append(latency)
        for operation, seconds in tx.db_call_latency.items():
            call_seconds[operation] += seconds
            call_counts[operation] += 1
        created_at = None
        if tx.block_number is not None:
            try:
                created_at = block_times[tx.channel][tx.block_number]
            except KeyError:  # a block this record's ledgers do not hold
                pass
        for stage, duration in stage_durations(tx, created_at).items():
            stage_samples[stage].append(duration)
    stages = [stage for stage in LIFECYCLE_STAGES if stage in stage_samples]
    stages += sorted(stage for stage in stage_samples if stage not in LIFECYCLE_STAGES)
    return Walk(
        last_commit=last_commit,
        logical_requests=len(committed_by_origin),
        committed_requests=sum(committed_by_origin.values()),
        average_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_quantiles=quantiles(latencies),
        function_call_latency_ms={
            operation: 1000.0 * call_seconds[operation] / call_counts[operation]
            for operation in sorted(call_seconds)
        },
        stage_latency={
            stage: {
                "count": float(len(stage_samples[stage])),
                "mean_s": sum(stage_samples[stage]) / len(stage_samples[stage]),
                "p95_s": percentile(stage_samples[stage], 0.95),
            }
            for stage in stages
        },
        read_only=read_only,
    )


def failure_report(failed: Iterable[Transaction], total_transactions: int) -> FailureReport:
    """Count failed transactions by the class their stamp names, first seen first."""
    counts = {}
    for tx in failed:
        failure_type = failure_type_of(tx)
        counts[failure_type] = counts.get(failure_type, 0) + 1
    return FailureReport(total_transactions=total_transactions, counts=counts)


def metrics(record: RunRecord, block_times: BlockTimes) -> ExperimentMetrics:
    """The Section 4.5 metrics of one recorded record, parsed off its chain."""
    totals = walk(record, block_times)
    submitted_count = len(record.transactions) - len(record.read_only_skipped)
    report = failure_report(record.failed_transactions(), submitted_count)
    ledgers = record.ledgers()
    committed = sum(len(ledger.committed_transactions()) for ledger in ledgers)
    appended = sum(ledger.transaction_count for ledger in ledgers)
    horizon = max(record.duration, totals.last_commit)
    blocks = sum(ledger.height for ledger in ledgers)
    return ExperimentMetrics(
        variant=record.variant_name,
        chaincode=record.chaincode_name,
        workload=record.workload_name,
        arrival_rate=record.arrival_rate,
        block_size=record.config.block_size,
        duration=record.duration,
        submitted_transactions=submitted_count,
        committed_transactions=committed,
        failure_report=report,
        average_latency=totals.average_latency,
        committed_throughput=appended / horizon if horizon > 0 else 0.0,
        successful_throughput=committed / horizon if horizon > 0 else 0.0,
        blocks=blocks,
        average_block_fill=(
            sum(block.size for ledger in ledgers for block in ledger) / blocks if blocks else 0.0
        ),
        orderer_utilization=record.orderer_utilization,
        validation_utilization=record.mean_validation_utilization,
        endorsement_utilization=record.mean_endorsement_utilization,
        function_call_latency_ms=totals.function_call_latency_ms,
        retry_policy=record.retry_policy,
        resubmissions=record.resubmissions,
        retries_exhausted=record.retries_exhausted,
        retry_budget_denied=record.retry_budget_denied,
        retry_rate_denied=record.retry_rate_denied,
        logical_requests=totals.logical_requests,
        committed_requests=totals.committed_requests,
        fault_injections=dict(record.fault_injections),
        measurement_horizon=horizon,
        latency_quantiles=totals.latency_quantiles,
        stage_latency=totals.stage_latency,
        isolation=record.isolation.summary() if record.isolation is not None else {},
    )


class Parse(NamedTuple):
    """Everything the analysis reports, parsed off a recorded run's chain."""

    metrics: ExperimentMetrics
    #: ``channel index -> metrics`` (empty on one channel).
    channels: Dict[int, ExperimentMetrics]
    conflicting_keys: List[Tuple[str, int]]
    read_only_share: float


def parse(analysis: ExperimentAnalysis) -> Parse:
    """Parse the chain of a recorded analysis as the paper does."""
    record = analysis.record
    block_times = block_times_of(record)
    failed = record.failed_transactions()
    keys = [tx.conflicting_key for tx in failed if tx.validation_code in CONFLICT_CODES]
    return Parse(
        metrics=metrics(record, block_times),
        channels={
            channel.index: metrics(channel.record, block_times)
            for channel in record.channel_records
        },
        conflicting_keys=sorted(Counter(keys).items(), key=lambda pair: (-pair[1], pair[0])),
        read_only_share=walk(record, block_times).read_only / max(1, len(record.transactions)),
    )
