"""The experiment analysis: the paper's ledger parse, taken as the run goes.

The paper's methodology (Section 4.5) collects all performance metrics by
parsing the blockchain after each experiment, so that measurement has no impact
on the running system.  This reproduction takes the same measurements without
keeping the chain: a tally on each channel's lifecycle bus
(:mod:`repro.lifecycle.tally`) counts every attempt at the event that decides
it and keeps its latency samples in a compact row, and :class:`LedgerAnalyzer`
turns the folded tally into an :class:`ExperimentAnalysis` that the benchmark
harness, the recommendation engine and the reporting layer consume.

Why taking each attempt at its terminal event equals parsing the chain
afterwards: a parse reads, per attempt, fields the pipeline stamps once —
submission, endorsement, ordering, block and terminal times, the validation
code and its conflict stamp — and every one of them is final when the attempt
emits its terminal ``COMMITTED`` or ``ABORTED`` event (a block's verdicts are
final at ``VALIDATED``, before the reference peer commits it).  The one
exception is the first execution's DB-call latencies of an attempt that
ended before any of its proposals had executed; the peer that executes a
late proposal reports them (:meth:`~repro.lifecycle.tally.ChannelTally.late_stamp`).
Counts, the exact latency quantiles and the exactly rounded means are
statistics of the bag of attempts, so the tally's order is not the parse's
and need not be.  The parse itself lives on as the test oracle
``tests/metrics_oracle.py``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

from repro.core.failures import FailureType, failure_type_of
from repro.core.metrics import ExperimentMetrics, FailureReport, compute_metrics
from repro.ledger.block import Transaction
from repro.network.network import RunRecord


@dataclass
class ChannelAnalysis:
    """One channel's analysis within a multi-channel run."""

    index: int
    name: str
    metrics: ExperimentMetrics
    cross_channel_submitted: int = 0
    cross_channel_aborted: int = 0

    @property
    def failure_report(self) -> FailureReport:
        """The failure breakdown of this channel."""
        return self.metrics.failure_report


@dataclass
class ExperimentAnalysis:
    """The complete analysis of one simulated experiment run.

    Multi-channel runs additionally carry one :class:`ChannelAnalysis` per
    channel; the top-level ``metrics`` then aggregate across channels.
    Everything in it is plain counts, sums and quantiles — what a sweep row
    is printed from — unless the run recorded its chain (``record.chain``).
    """

    record: RunRecord
    metrics: ExperimentMetrics
    channel_analyses: List[ChannelAnalysis] = field(default_factory=list)
    #: Every key of an MVCC or phantom conflict with its number of failed
    #: transactions, most frequent first (:meth:`hottest_conflicting_keys`).
    conflicting_keys: List[Tuple[str, int]] = field(default_factory=list)
    #: Share of the generated transactions that were read-only.
    read_only_share: float = 0.0

    @property
    def failure_report(self) -> FailureReport:
        """The failure breakdown of this run."""
        return self.metrics.failure_report

    @property
    def failed_transactions(self) -> List[Transaction]:
        """``record.failed_transactions()`` of a recorded run; each carries its stamp."""
        return self.record.failed_transactions()

    def failures_of_type(self, failure_type: FailureType) -> List[Transaction]:
        """All failed transactions of one class (a recorded run's)."""
        return [tx for tx in self.failed_transactions if failure_type_of(tx) is failure_type]

    def hottest_conflicting_keys(self, limit: int = 10) -> List[tuple[str, int]]:
        """Keys most often involved in MVCC and phantom conflicts, most frequent first.

        Useful for the chaincode-design recommendations of Section 6.1 (e.g.
        splitting a hot ``PatientID`` key into per-record keys).  The lock key
        the coordinator stamps on a cross-channel abort is not counted.
        """
        return self.conflicting_keys[:limit]


class LedgerAnalyzer:
    """Turns run records into :class:`ExperimentAnalysis` objects."""

    def analyze(self, record: RunRecord) -> ExperimentAnalysis:
        """The metrics of ``record`` from its tally, per channel too.

        Multi-channel records additionally produce a :class:`ChannelAnalysis`
        per channel; the top-level metrics aggregate over all chains.
        """
        channel_analyses = [
            ChannelAnalysis(
                index=channel.index,
                name=channel.name,
                metrics=compute_metrics(channel.record),
                cross_channel_submitted=channel.cross_channel_submitted,
                cross_channel_aborted=channel.cross_channel_aborted,
            )
            for channel in record.channel_records
        ]
        tally = record.tally
        return ExperimentAnalysis(
            record=record,
            metrics=compute_metrics(record),
            channel_analyses=channel_analyses,
            conflicting_keys=tally.conflicting_keys,
            read_only_share=tally.read_only / max(1, tally.attempts),
        )
