"""Experiment metrics: failure percentages, latency and committed throughput.

The metrics follow the definitions of paper Section 4.5: all failures are
reported as percentages of the submitted transactions, the *average total
transaction latency* covers all three phases of both failed and successful
transactions, and the *committed transaction throughput* is the number of
transactions committed to the blockchain divided by the total time taken.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.core.failures import FailureType
from repro.network.network import RunRecord


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
    #: transactions, exact (:func:`~repro.sim.stats.quantiles`).
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


def compute_metrics(record: RunRecord) -> ExperimentMetrics:
    """Compute the Section 4.5 metrics for one run record, from its tally.

    ``record.tally`` is what the paper's post-experiment parse reads off the
    chain, taken as each attempt ended (:mod:`repro.lifecycle.tally`);
    multi-channel records aggregate over every channel.
    """
    tally = record.tally
    # Read-only transactions that were answered locally (client-design
    # ablation) are not considered submitted-for-ordering, mirroring the paper
    # where they simply never reach the blockchain.
    submitted_count = tally.attempts - tally.skipped
    report = FailureReport(total_transactions=submitted_count, counts=dict(tally.failures))
    horizon = max(record.duration, tally.last_commit)
    throughput = tally.appended / horizon if horizon > 0 else 0.0
    successful_throughput = tally.committed / horizon if horizon > 0 else 0.0
    blocks = tally.blocks
    return ExperimentMetrics(
        variant=record.variant_name,
        chaincode=record.chaincode_name,
        workload=record.workload_name,
        arrival_rate=record.arrival_rate,
        block_size=record.config.block_size,
        duration=record.duration,
        submitted_transactions=submitted_count,
        committed_transactions=tally.committed,
        failure_report=report,
        average_latency=tally.average_latency,
        committed_throughput=throughput,
        successful_throughput=successful_throughput,
        blocks=blocks,
        average_block_fill=tally.appended / blocks if blocks else 0.0,
        orderer_utilization=record.orderer_utilization,
        validation_utilization=record.mean_validation_utilization,
        endorsement_utilization=record.mean_endorsement_utilization,
        function_call_latency_ms=dict(tally.function_call_latency_ms),
        retry_policy=record.retry_policy,
        resubmissions=record.resubmissions,
        retries_exhausted=record.retries_exhausted,
        retry_budget_denied=record.retry_budget_denied,
        retry_rate_denied=record.retry_rate_denied,
        logical_requests=tally.logical_requests,
        committed_requests=tally.committed_requests,
        fault_injections=dict(record.fault_injections),
        measurement_horizon=horizon,
        latency_quantiles=dict(tally.latency_quantiles),
        stage_latency={stage: dict(stats) for stage, stats in tally.stage_latency.items()},
        isolation=record.isolation.summary() if record.isolation is not None else {},
    )
