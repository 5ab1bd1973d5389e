"""Post-experiment ledger analysis.

The paper's methodology (Section 4.5) collects all performance metrics by
parsing the blockchain after each experiment, so that measurement has no impact
on the running system.  :class:`LedgerAnalyzer` performs that parse: it
collects every failed transaction, counts them by the failure class their
stamp names (:mod:`repro.core.failures`), computes latency and throughput, and
bundles everything into an :class:`ExperimentAnalysis` that the benchmark
harness, the recommendation engine and the reporting layer consume.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field, replace
from typing import List, Tuple

from repro.core.failures import CONFLICT_CODES, FailureType, failure_type_of
from repro.core.metrics import (
    ExperimentMetrics,
    FailureReport,
    block_times_of,
    compute_metrics,
    walk_transactions,
)
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
    Everything but ``record``'s chain is plain counts, sums and quantiles:
    :meth:`detached` is what a sweep row is printed from.
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
        """``record.failed_transactions()``; each carries its own failure stamp."""
        return self.record.failed_transactions()

    def detached(self) -> "ExperimentAnalysis":
        """This analysis around ``record.detached()``: no transaction, block or ledger."""
        return replace(self, record=self.record.detached())

    def failures_of_type(self, failure_type: FailureType) -> List[Transaction]:
        """All failed transactions of one class."""
        return [tx for tx in self.failed_transactions if failure_type_of(tx) is failure_type]

    def hottest_conflicting_keys(self, limit: int = 10) -> List[tuple[str, int]]:
        """Keys most often involved in MVCC and phantom conflicts, most frequent first.

        Useful for the chaincode-design recommendations of Section 6.1 (e.g.
        splitting a hot ``PatientID`` key into per-record keys).  The lock key
        the coordinator stamps on a cross-channel abort is not counted.
        """
        return self.conflicting_keys[:limit]


class LedgerAnalyzer:
    """Parses run records into :class:`ExperimentAnalysis` objects."""

    def analyze(self, record: RunRecord) -> ExperimentAnalysis:
        """Collect the failures of ``record`` and compute its metrics.

        Multi-channel records additionally produce a :class:`ChannelAnalysis`
        per channel; the top-level metrics aggregate over all chains.  A
        channel's per-transaction totals were computed where it was simulated
        (:attr:`ChannelRecord.totals <repro.network.network.ChannelRecord.totals>`),
        so the one pass over transactions made here is the aggregate's.
        """
        channel_analyses: List[ChannelAnalysis] = []
        for channel in record.channel_records:
            channel_analyses.append(
                ChannelAnalysis(
                    index=channel.index,
                    name=channel.name,
                    metrics=compute_metrics(
                        channel.record, channel.record.failed_transactions(), channel.totals
                    ),
                    cross_channel_submitted=channel.cross_channel_submitted,
                    cross_channel_aborted=channel.cross_channel_aborted,
                )
            )
        failed = record.failed_transactions()
        keys = [tx.conflicting_key for tx in failed if tx.validation_code in CONFLICT_CODES]
        totals = walk_transactions(record, block_times_of(record))
        return ExperimentAnalysis(
            record=record,
            metrics=compute_metrics(record, failed, totals),
            channel_analyses=channel_analyses,
            conflicting_keys=sorted(Counter(keys).items(), key=lambda pair: (-pair[1], pair[0])),
            read_only_share=totals.read_only / max(1, len(record.transactions)),
        )
