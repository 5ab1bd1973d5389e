"""Experiment metrics: failure percentages, latency and committed throughput.

The metrics follow the definitions of paper Section 4.5: all failures are
reported as percentages of the submitted transactions, the *average total
transaction latency* covers all three phases of both failed and successful
transactions, and the *committed transaction throughput* is the number of
transactions committed to the blockchain divided by the total time taken.
"""

from __future__ import annotations

from array import array
from collections import defaultdict
from dataclasses import dataclass, field
from functools import partial
from typing import Dict, Iterable, NamedTuple, Optional

from repro.core.failures import FailureType, failure_type_of
from repro.ledger.block import Transaction
from repro.network.network import RunRecord
from repro.observability.spans import LIFECYCLE_STAGES, BlockTimes, stage_durations
from repro.sim.stats import QuantileSketch, percentile


@dataclass
class FailureReport:
    """Failure counts and percentages broken down by failure type."""

    total_transactions: int
    counts: Dict[FailureType, int] = field(default_factory=dict)

    def count(self, failure_type: FailureType) -> int:
        """Number of failures of the given type."""
        return self.counts.get(failure_type, 0)

    def pct(self, *failure_types: FailureType) -> float:
        """Failures of the given classes as a percentage of all transactions.

        Several classes add their percentages in the order given, so
        ``pct(*MVCC)`` is the intra-block plus the inter-block share.
        """
        if self.total_transactions == 0:
            return 0.0
        return sum(
            100.0 * self.count(failure_type) / self.total_transactions
            for failure_type in failure_types
        )

    @property
    def recorded_failures(self) -> int:
        """Failed transactions recorded on the blockchain.

        The headline failure percentage counts these only (see
        :attr:`FailureType.on_chain <repro.core.failures.FailureType.on_chain>`).
        """
        return sum(count for failure_type, count in self.counts.items() if failure_type.on_chain)

    @property
    def total_failures(self) -> int:
        """Total number of failed transactions including early aborts."""
        return sum(self.counts.values())

    @property
    def total_failure_pct(self) -> float:
        """Blockchain-recorded failures as a percentage of submitted transactions.

        The *raw* (per-attempt) failure rate: every resubmitted attempt counts
        again, exactly as the blockchain records it.
        """
        if self.total_transactions == 0:
            return 0.0
        return 100.0 * self.recorded_failures / self.total_transactions

    def as_dict(self) -> Dict[str, float]:
        """Percentages keyed by failure-type value (for reports and tests)."""
        summary = {failure.value: self.pct(failure) for failure in FailureType}
        summary["total"] = self.total_failure_pct
        return summary


@dataclass
class ExperimentMetrics:
    """All metrics of one experiment run."""

    variant: str
    chaincode: str
    workload: str
    arrival_rate: float
    block_size: int
    duration: float
    submitted_transactions: int
    committed_transactions: int
    failure_report: FailureReport
    average_latency: float
    #: Transactions appended to the blockchain (valid and failed) per second —
    #: the paper's "committed transaction throughput" (Section 4.5).
    committed_throughput: float
    #: Only successfully validated transactions per second.
    successful_throughput: float
    blocks: int
    average_block_fill: float
    orderer_utilization: float
    validation_utilization: float
    endorsement_utilization: float
    function_call_latency_ms: Dict[str, float] = field(default_factory=dict)
    #: Client retry subsystem bookkeeping (see :mod:`repro.lifecycle.retry`).
    retry_policy: str = "none"
    resubmissions: int = 0
    retries_exhausted: int = 0
    retry_budget_denied: int = 0
    retry_rate_denied: int = 0
    #: Distinct logical client requests (resubmission attempts of the same
    #: request collapse onto their first attempt's transaction id).
    logical_requests: int = 0
    #: Logical requests with at least one committed attempt.
    committed_requests: int = 0
    #: Fault-injection bookkeeping of the run: applied injections per
    #: :class:`~repro.faults.schedule.FaultKind` value plus loss/deferral
    #: counters (empty without an enabled fault config).
    fault_injections: Dict[str, int] = field(default_factory=dict)
    #: The horizon the throughput metrics divide by: the configured duration
    #: or the last commit time, whichever is later.
    measurement_horizon: float = 0.0
    #: Total-latency quantiles (``p50``/``p95``/``p99``) over all terminated
    #: transactions, from the constant-memory P² sketch.
    latency_quantiles: Dict[str, float] = field(default_factory=dict)
    #: Per-lifecycle-stage latency breakdown: stage name ->
    #: ``{"count", "mean_s", "p95_s"}`` (only stages any transaction reached).
    stage_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)
    #: Isolation-checker verdict summary of the run (see
    #: :meth:`repro.checker.checker.IsolationReport.summary`; empty unless
    #: ``config.checker`` was enabled).
    isolation: Dict[str, object] = field(default_factory=dict)

    @property
    def client_effective_failure_pct(self) -> float:
        """Logical requests that never committed, in percent.

        The failure rate a client actually experiences once its retries are
        accounted for: a request that fails twice and commits on the third
        attempt is one success here, while it contributes two failures to the
        raw :attr:`FailureReport.total_failure_pct`.
        """
        if self.logical_requests == 0:
            return 0.0
        failed = self.logical_requests - self.committed_requests
        return 100.0 * failed / self.logical_requests

    @property
    def goodput(self) -> float:
        """Committed *logical requests* per second.

        Committed throughput counts every transaction appended to the chain —
        including failed attempts and duplicate retries.  Goodput counts each
        logical request at most once, so retry storms inflate committed
        throughput but never goodput.  Divides by the same horizon as the
        throughput metrics, so the two are directly comparable.
        """
        horizon = self.measurement_horizon or self.duration
        if horizon <= 0:
            return 0.0
        return self.committed_requests / horizon

    @property
    def retry_amplification(self) -> float:
        """Submitted attempts per logical request (1.0 = no retries).

        The load-amplification factor of the retry policy: 2.0 means the
        clients pushed twice as many attempts into the network as they had
        requests — the signature of a retry storm.
        """
        if self.logical_requests == 0:
            return 1.0
        return self.submitted_transactions / self.logical_requests


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


class TransactionTotals(NamedTuple):
    """What :func:`compute_metrics` reads off ``record.transactions``."""

    #: Latest commit time (0.0 when nothing terminated).
    last_commit: float
    #: Distinct logical requests, and those with a committed attempt.
    logical_requests: int
    committed_requests: int
    average_latency: float
    latency_quantiles: Dict[str, float]
    function_call_latency_ms: Dict[str, float]
    stage_latency: Dict[str, Dict[str, float]]
    #: Read-only transactions among them.
    read_only: int


def walk_transactions(record: RunRecord, block_times: BlockTimes) -> TransactionTotals:
    """Every per-transaction metric of one record, from one pass over it.

    ``block_times`` holds the chain of every channel a transaction of
    ``record`` names in ``tx.channel`` (:func:`block_times_of` for a whole
    run's record).

    Each accumulator is fed the values, in the order, it would see on a pass
    of its own, and each mean is still ``sum()`` over its complete sample
    sequence: ``sum()`` is compensated since Python 3.12, so a running ``+=``
    would be a different float there.  Samples are packed doubles
    (``array("d")``) — next to every retained transaction they are the bulk of
    what the analysis holds at its peak, and all of them are alive at once.
    """
    skipped = {tx.tx_id for tx in record.read_only_skipped}
    last_commit = 0.0
    read_only = 0
    # Resubmission attempts share their first attempt's transaction id as
    # ``origin_id``, so grouping by it collapses every retry chain onto one
    # logical request.  Read-only transactions answered locally are excluded,
    # mirroring the submitted-for-ordering count of the failure report.
    committed_by_origin: Dict[str, bool] = {}
    latencies = array("d")
    sketch = QuantileSketch()
    observe_latency = sketch.add
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
            observe_latency(latency)
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
    return TransactionTotals(
        last_commit=last_commit,
        logical_requests=len(committed_by_origin),
        committed_requests=sum(committed_by_origin.values()),
        average_latency=sum(latencies) / len(latencies) if latencies else 0.0,
        latency_quantiles=sketch.as_dict(),
        # Mean latency per state-database call type, in milliseconds (Table 4).
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


def build_failure_report(failed: Iterable[Transaction], total_transactions: int) -> FailureReport:
    """Count failed transactions by the class their stamp names."""
    counts: Dict[FailureType, int] = {}
    for tx in failed:
        failure_type = failure_type_of(tx)
        counts[failure_type] = counts.get(failure_type, 0) + 1
    return FailureReport(total_transactions=total_transactions, counts=counts)


def compute_metrics(
    record: RunRecord, failed: Iterable[Transaction], totals: Optional[TransactionTotals] = None
) -> ExperimentMetrics:
    """Compute the Section 4.5 metrics for one run record.

    ``failed`` is ``record.failed_transactions()``, which the analyzer keeps.
    ``totals`` is the record's :func:`walk_transactions`, when the process
    that simulated it already made that pass; otherwise it is made here.
    Multi-channel records aggregate over every channel's chain.
    """
    # Read-only transactions that were answered locally (client-design
    # ablation) are not considered submitted-for-ordering, mirroring the paper
    # where they simply never reach the blockchain.
    submitted_count = len(record.transactions) - len(record.read_only_skipped)
    report = build_failure_report(failed, submitted_count)
    ledgers = record.ledgers()
    committed = sum(len(ledger.committed_transactions()) for ledger in ledgers)
    appended = sum(ledger.transaction_count for ledger in ledgers)
    if totals is None:
        totals = walk_transactions(record, block_times_of(record))
    horizon = max(record.duration, totals.last_commit)
    throughput = appended / horizon if horizon > 0 else 0.0
    successful_throughput = committed / horizon if horizon > 0 else 0.0
    blocks = sum(ledger.height for ledger in ledgers)
    average_fill = (
        sum(block.size for ledger in ledgers for block in ledger) / blocks if blocks else 0.0
    )
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
        committed_throughput=throughput,
        successful_throughput=successful_throughput,
        blocks=blocks,
        average_block_fill=average_fill,
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
