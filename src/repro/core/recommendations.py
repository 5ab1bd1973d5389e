"""Practitioner recommendations (paper Section 6) as a rule engine.

Given the analysis of one or more experiment runs and the configuration they
ran under, the engine emits the applicable recommendations of Section 6.1 —
adapting the block size, simplifying the endorsement policy, preferring
LevelDB, avoiding range queries, batching read-only transactions — each with
the rationale observed in the data.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.analyzer import ExperimentAnalysis
from repro.core.failures import MVCC, FailureType
from repro.network.config import DatabaseType


@dataclass(frozen=True)
class Recommendation:
    """One actionable recommendation with its rationale."""

    identifier: str
    title: str
    rationale: str
    paper_section: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.identifier}] {self.title}: {self.rationale}"


class RecommendationEngine:
    """Derives Section 6 recommendations from measured failure reports."""

    def __init__(
        self,
        mvcc_threshold_pct: float = 5.0,
        endorsement_threshold_pct: float = 1.0,
        phantom_threshold_pct: float = 1.0,
        read_only_share_threshold: float = 0.3,
        orderer_utilization_threshold: float = 0.8,
        cross_channel_threshold_pct: float = 1.0,
        channel_imbalance_threshold: float = 1.5,
        retry_failure_threshold_pct: float = 10.0,
        retry_amplification_threshold: float = 1.5,
        peer_fault_threshold_pct: float = 1.0,
        outage_threshold_pct: float = 0.5,
    ) -> None:
        self.mvcc_threshold_pct = mvcc_threshold_pct
        self.endorsement_threshold_pct = endorsement_threshold_pct
        self.phantom_threshold_pct = phantom_threshold_pct
        self.read_only_share_threshold = read_only_share_threshold
        self.orderer_utilization_threshold = orderer_utilization_threshold
        self.cross_channel_threshold_pct = cross_channel_threshold_pct
        self.channel_imbalance_threshold = channel_imbalance_threshold
        self.retry_failure_threshold_pct = retry_failure_threshold_pct
        self.retry_amplification_threshold = retry_amplification_threshold
        self.peer_fault_threshold_pct = peer_fault_threshold_pct
        self.outage_threshold_pct = outage_threshold_pct

    def recommend(self, analysis: ExperimentAnalysis) -> List[Recommendation]:
        """All recommendations triggered by this analysis."""
        recommendations: List[Recommendation] = []
        report = analysis.failure_report
        config = analysis.record.config
        metrics = analysis.metrics

        mvcc = report.pct(*MVCC)
        if mvcc >= self.mvcc_threshold_pct:
            recommendations.append(
                Recommendation(
                    identifier="block-size",
                    title="Adapt the block size to the transaction arrival rate",
                    rationale=(
                        f"{mvcc:.1f}% of transactions fail with MVCC read conflicts "
                        f"at {metrics.arrival_rate:.0f} tps with block size {config.block_size}; "
                        "the paper observed up to 60% fewer failures at the best block size."
                    ),
                    paper_section="6.1 Block size",
                )
            )
            intra, inter = (report.pct(failure) for failure in MVCC)
            if intra > inter:
                recommendations.append(
                    Recommendation(
                        identifier="reordering",
                        title="Consider Fabric++ or FabricSharp (transaction reordering)",
                        rationale=(
                            "Most MVCC conflicts are intra-block "
                            f"({intra:.1f}% vs {inter:.1f}% inter-block); intra-block "
                            "conflicts can be resolved by reordering."
                        ),
                        paper_section="6.1 Types of failures",
                    )
                )

        endorsement = report.pct(FailureType.ENDORSEMENT_POLICY)
        if endorsement >= self.endorsement_threshold_pct:
            recommendations.append(
                Recommendation(
                    identifier="endorsement-policy",
                    title="Reduce organizations, signatures and sub-policies",
                    rationale=(
                        f"{endorsement:.2f}% endorsement policy failures with "
                        f"{config.orgs} organizations and policy {config.endorsement_policy}; "
                        "fewer endorsers and simpler policies reduce world-state "
                        "inconsistency windows."
                    ),
                    paper_section="6.1 Number of organizations & endorsement policies",
                )
            )

        phantom = report.pct(FailureType.PHANTOM_READ)
        if phantom >= self.phantom_threshold_pct:
            recommendations.append(
                Recommendation(
                    identifier="range-queries",
                    title="Avoid range queries in the chaincode",
                    rationale=(
                        f"{phantom:.2f}% phantom read conflicts; no Fabric parameter "
                        "resolves them, so redesign the chaincode (e.g. maintain aggregate keys "
                        "instead of scanning ranges)."
                    ),
                    paper_section="6.1 Chaincode design & database type",
                )
            )

        # The analysis reports a call type only if some transaction made it.
        if (
            DatabaseType.parse(config.database) is DatabaseType.COUCHDB
            and "GetQueryResult" not in metrics.function_call_latency_ms
        ):
            recommendations.append(
                Recommendation(
                    identifier="leveldb",
                    title="Use LevelDB instead of CouchDB",
                    rationale=(
                        "The workload never used rich queries, but CouchDB adds an order of "
                        "magnitude of latency to every state operation and increases both "
                        "MVCC and endorsement policy failures."
                    ),
                    paper_section="6.1 Chaincode design & database type",
                )
            )

        read_only_share = analysis.read_only_share
        if read_only_share >= self.read_only_share_threshold and config.submit_read_only:
            recommendations.append(
                Recommendation(
                    identifier="read-only",
                    title="Do not submit read-only transactions for ordering",
                    rationale=(
                        f"{100 * read_only_share:.0f}% of the submitted transactions are "
                        "read-only; their result is already known after the execution phase, "
                        "so batching or skipping them avoids needless ordering and validation."
                    ),
                    paper_section="6.1 Client design",
                )
            )

        self._channel_rules(analysis, recommendations)
        self._retry_rules(analysis, recommendations)
        self._fault_rules(analysis, recommendations)

        if analysis.record.config.delayed_orgs:
            recommendations.append(
                Recommendation(
                    identifier="network-delay",
                    title="Account for geographically distant organizations",
                    rationale=(
                        "An organization with induced network delay participates in "
                        "endorsement; either exclude it from the endorsement policy or expect "
                        "elevated endorsement policy failures and MVCC conflicts."
                    ),
                    paper_section="5.1.7 Network delay",
                )
            )
        return recommendations

    def _channel_rules(
        self, analysis: ExperimentAnalysis, recommendations: List[Recommendation]
    ) -> None:
        """Channel-count advice for the multi-channel extension."""
        report = analysis.failure_report
        config = analysis.record.config
        metrics = analysis.metrics
        if (
            config.channels == 1
            and metrics.orderer_utilization >= self.orderer_utilization_threshold
        ):
            recommendations.append(
                Recommendation(
                    identifier="channel-count",
                    title="Shard the workload across multiple channels",
                    rationale=(
                        f"the single ordering service is "
                        f"{100 * metrics.orderer_utilization:.0f}% utilized; partitioning the "
                        "key space across channels gives every shard its own orderer and "
                        "block cutter, raising aggregate throughput and shrinking the MVCC "
                        "conflict window."
                    ),
                    paper_section="Extension: multi-channel deployments",
                )
            )
        if config.channels > 1:
            cross_channel = report.pct(FailureType.CROSS_CHANNEL_ABORT)
            if cross_channel >= self.cross_channel_threshold_pct:
                recommendations.append(
                    Recommendation(
                        identifier="cross-channel",
                        title="Reduce cross-channel transactions",
                        rationale=(
                            f"{cross_channel:.2f}% of transactions abort in "
                            "the two-phase cross-channel prepare; co-locate keys that are "
                            "updated together on one channel or lower the cross-channel "
                            "fraction."
                        ),
                        paper_section="Extension: multi-channel deployments",
                    )
                )
            submitted = [
                channel.metrics.submitted_transactions for channel in analysis.channel_analyses
            ]
            if submitted:
                mean = sum(submitted) / len(submitted)
                if mean > 0 and max(submitted) / mean >= self.channel_imbalance_threshold:
                    recommendations.append(
                        Recommendation(
                            identifier="placement",
                            title="Rebalance the key placement across channels",
                            rationale=(
                                f"the busiest channel received {max(submitted)} of "
                                f"{sum(submitted)} transactions "
                                f"({max(submitted) / mean:.1f}x the mean); hash placement "
                                "spreads hot keys evenly across channels."
                            ),
                            paper_section="Extension: multi-channel deployments",
                        )
                    )

    def _retry_rules(
        self, analysis: ExperimentAnalysis, recommendations: List[Recommendation]
    ) -> None:
        """Client retry/resubmission advice (see :mod:`repro.lifecycle.retry`)."""
        report = analysis.failure_report
        retry = analysis.record.config.retry
        metrics = analysis.metrics
        if not retry.enabled and report.total_failure_pct >= self.retry_failure_threshold_pct:
            recommendations.append(
                Recommendation(
                    identifier="enable-retries",
                    title="Resubmit failed transactions with jittered backoff",
                    rationale=(
                        f"{report.total_failure_pct:.1f}% of transactions fail and the "
                        "clients never resubmit, so every failure is a lost request "
                        "(client-effective failure rate equals the raw rate); a jittered "
                        "backoff retry policy recovers most failed requests at a bounded "
                        "load amplification."
                    ),
                    paper_section="Extension: client retry subsystem",
                )
            )
        mvcc = report.pct(*MVCC)
        if (
            retry.enabled
            and retry.policy in ("immediate", "fixed")
            and mvcc >= self.mvcc_threshold_pct
        ):
            recommendations.append(
                Recommendation(
                    identifier="jittered-backoff",
                    title="Decorrelate retries with jittered exponential backoff",
                    rationale=(
                        f"MVCC read conflicts dominate the failures ({mvcc:.1f}%) "
                        f"and the {retry.policy!r} retry policy resubmits every transaction "
                        "of a failed batch (almost) simultaneously, re-creating the "
                        "conflicting batch one retry later — especially under a skewed "
                        "key distribution, where the resubmissions collide on the same "
                        "hot keys; full-jitter exponential backoff spreads them apart."
                    ),
                    paper_section="Extension: client retry subsystem",
                )
            )
        if (
            retry.enabled
            and retry.rate_cap is None
            and metrics.retry_amplification >= self.retry_amplification_threshold
        ):
            recommendations.append(
                Recommendation(
                    identifier="retry-rate-cap",
                    title="Cap the deployment-wide resubmission rate",
                    rationale=(
                        f"the clients submit {metrics.retry_amplification:.1f}x as many "
                        "attempts as they have requests and no resubmission rate cap is "
                        "configured — a retry storm that feeds the very contention it "
                        "reacts to; a global rate cap (or a per-client budget) bounds the "
                        "amplification while keeping most of the recovered requests."
                    ),
                    paper_section="Extension: client retry subsystem",
                )
            )

    def _fault_rules(
        self, analysis: ExperimentAnalysis, recommendations: List[Recommendation]
    ) -> None:
        """Chaos-resilience advice derived from fault-induced failure classes."""
        report = analysis.failure_report
        config = analysis.record.config
        retry = config.retry
        peer_fault_pct = report.pct(FailureType.PEER_UNAVAILABLE, FailureType.ENDORSEMENT_TIMEOUT)
        if peer_fault_pct >= self.peer_fault_threshold_pct:
            recommendations.append(
                Recommendation(
                    identifier="endorsement-quorum-slack",
                    title="Add endorsement quorum slack for crash-prone peers",
                    rationale=(
                        f"{peer_fault_pct:.2f}% of transactions fail because an endorsing "
                        f"peer was down or its response timed out; with "
                        f"{config.endorsers_per_org} endorser(s) per organization a single "
                        "crash removes an organization from the quorum, so provision spare "
                        "endorsers per org (endorsers_per_org + 1) or relax the policy to a "
                        "quorum that tolerates one missing organization."
                    ),
                    paper_section="Extension: fault injection",
                )
            )
        refused = report.pct(FailureType.ORDERER_UNAVAILABLE)
        if not retry.enabled and refused >= self.outage_threshold_pct:
            recommendations.append(
                Recommendation(
                    identifier="retry-under-outage",
                    title="Enable jittered retries to ride out orderer blips",
                    rationale=(
                        f"{refused:.2f}% of transactions were refused "
                        "during ordering-service outage windows and the clients never "
                        "resubmit, so every blip permanently loses its requests; a jittered "
                        "backoff retry policy resubmits them after the outage at bounded "
                        "extra load."
                    ),
                    paper_section="Extension: fault injection",
                )
            )
