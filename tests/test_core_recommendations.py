"""Unit tests for the recommendation engine: one test per rule.

The engine only looks at the failure report, the network configuration, the
analysis' two transaction facts (read-only share, database call types) and
(for the channel rules) the per-channel analyses, so each rule can be
exercised with a small synthetic analysis — no simulation required.  That it
never reads the chain is checked on real cells at the end: the attached and
the detached analysis of one repetition yield the same recommendations.
"""

from __future__ import annotations

from typing import Dict, List, Optional

import pytest

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.core.analyzer import ChannelAnalysis, ExperimentAnalysis, LedgerAnalyzer
from repro.core.failures import FailureType
from repro.core.metrics import ExperimentMetrics, FailureReport
from repro.core.recommendations import RecommendationEngine
from repro.ledger.ledger import Ledger
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.network.network import RunRecord
from repro.workload.workloads import synthetic_workload, uniform_workload


def make_metrics(
    report: FailureReport,
    orderer_utilization: float = 0.1,
    submitted: Optional[int] = None,
) -> ExperimentMetrics:
    return ExperimentMetrics(
        variant="fabric-1.4",
        chaincode="EHR",
        workload="test",
        arrival_rate=100.0,
        block_size=100,
        duration=10.0,
        submitted_transactions=submitted if submitted is not None else report.total_transactions,
        committed_transactions=report.total_transactions - report.total_failures,
        failure_report=report,
        average_latency=0.5,
        committed_throughput=50.0,
        successful_throughput=40.0,
        blocks=5,
        average_block_fill=20.0,
        orderer_utilization=orderer_utilization,
        validation_utilization=0.1,
        endorsement_utilization=0.1,
    )


def make_analysis(
    counts: Optional[Dict[FailureType, int]] = None,
    total: int = 100,
    config: Optional[NetworkConfig] = None,
    read_only_share: float = 0.0,
    db_calls: Optional[Dict[str, float]] = None,
    orderer_utilization: float = 0.1,
    channel_analyses: Optional[List[ChannelAnalysis]] = None,
) -> ExperimentAnalysis:
    config = config or NetworkConfig(
        cluster="C1", orgs=2, peers_per_org=2, clients=2, database="leveldb"
    )
    report = FailureReport(total_transactions=total, counts=counts or {})
    record = RunRecord(
        config=config,
        variant_name="fabric-1.4",
        chaincode_name="EHR",
        workload_name="test",
        arrival_rate=100.0,
        duration=10.0,
        seed=1,
        ledger=Ledger(),
    )
    metrics = make_metrics(report, orderer_utilization=orderer_utilization)
    metrics.function_call_latency_ms = db_calls or {}
    return ExperimentAnalysis(
        record=record,
        metrics=metrics,
        channel_analyses=channel_analyses or [],
        read_only_share=read_only_share,
    )


def identifiers(analysis: ExperimentAnalysis, **engine_kwargs) -> set:
    engine = RecommendationEngine(**engine_kwargs)
    return {recommendation.identifier for recommendation in engine.recommend(analysis)}


# --------------------------------------------------------------- paper rules
def test_block_size_rule_triggers_on_high_mvcc():
    analysis = make_analysis(counts={FailureType.MVCC_INTER_BLOCK: 10})
    assert "block-size" in identifiers(analysis)
    quiet = make_analysis(counts={FailureType.MVCC_INTER_BLOCK: 2})
    assert "block-size" not in identifiers(quiet)


def test_reordering_rule_needs_intra_block_dominance():
    intra_heavy = make_analysis(
        counts={FailureType.MVCC_INTRA_BLOCK: 8, FailureType.MVCC_INTER_BLOCK: 2}
    )
    assert "reordering" in identifiers(intra_heavy)
    inter_heavy = make_analysis(
        counts={FailureType.MVCC_INTRA_BLOCK: 2, FailureType.MVCC_INTER_BLOCK: 8}
    )
    assert "reordering" not in identifiers(inter_heavy)


def test_endorsement_policy_rule_triggers_on_endorsement_failures():
    analysis = make_analysis(counts={FailureType.ENDORSEMENT_POLICY: 3})
    assert "endorsement-policy" in identifiers(analysis)
    assert "endorsement-policy" not in identifiers(make_analysis())


def test_range_query_rule_triggers_on_phantom_reads():
    analysis = make_analysis(counts={FailureType.PHANTOM_READ: 2})
    assert "range-queries" in identifiers(analysis)
    assert "range-queries" not in identifiers(make_analysis())


def test_leveldb_rule_fires_only_for_couchdb_without_rich_queries():
    couch = NetworkConfig(cluster="C1", database="couchdb")
    plain = make_analysis(config=couch, db_calls={"GetState": 10.0})
    assert "leveldb" in identifiers(plain)
    rich = make_analysis(config=couch, db_calls={"GetQueryResult": 20.0})
    assert "leveldb" not in identifiers(rich)
    level = make_analysis(db_calls={"GetState": 10.0})
    assert "leveldb" not in identifiers(level)


def test_read_only_rule_triggers_on_read_heavy_submission():
    analysis = make_analysis(read_only_share=0.4)
    assert "read-only" in identifiers(analysis)
    assert "read-only" not in identifiers(make_analysis(read_only_share=0.2))
    skipping = make_analysis(
        config=NetworkConfig(cluster="C1", database="leveldb", submit_read_only=False),
        read_only_share=0.4,
    )
    assert "read-only" not in identifiers(skipping)


def test_network_delay_rule_triggers_on_delayed_orgs():
    delayed = make_analysis(config=NetworkConfig(cluster="C1", delayed_orgs=(0,)))
    assert "network-delay" in identifiers(delayed)
    assert "network-delay" not in identifiers(make_analysis())


# -------------------------------------------------------------- channel rules
def test_channel_count_rule_triggers_on_a_saturated_single_orderer():
    saturated = make_analysis(orderer_utilization=0.95)
    assert "channel-count" in identifiers(saturated)
    relaxed = make_analysis(orderer_utilization=0.3)
    assert "channel-count" not in identifiers(relaxed)
    # Already multi-channel: the advice no longer applies.
    sharded = make_analysis(
        config=NetworkConfig(cluster="C1", channels=4), orderer_utilization=0.95
    )
    assert "channel-count" not in identifiers(sharded)


def test_cross_channel_rule_triggers_on_prepare_aborts():
    config = NetworkConfig(cluster="C1", channels=4, cross_channel_rate=0.3)
    noisy = make_analysis(counts={FailureType.CROSS_CHANNEL_ABORT: 5}, config=config)
    assert "cross-channel" in identifiers(noisy)
    quiet = make_analysis(config=config)
    assert "cross-channel" not in identifiers(quiet)
    # Single-channel runs can never trigger it.
    single = make_analysis(counts={FailureType.CROSS_CHANNEL_ABORT: 5})
    assert "cross-channel" not in identifiers(single)


def _channel_analysis(index: int, submitted: int) -> ChannelAnalysis:
    report = FailureReport(total_transactions=submitted)
    metrics = make_metrics(report, submitted=submitted)
    return ChannelAnalysis(index=index, name=f"channel{index}", metrics=metrics)


def test_placement_rule_triggers_on_channel_imbalance():
    config = NetworkConfig(cluster="C1", channels=3, placement="hot")
    skewed = make_analysis(
        config=config,
        channel_analyses=[
            _channel_analysis(0, 80),
            _channel_analysis(1, 10),
            _channel_analysis(2, 10),
        ],
    )
    assert "placement" in identifiers(skewed)
    balanced = make_analysis(
        config=config,
        channel_analyses=[
            _channel_analysis(0, 34),
            _channel_analysis(1, 33),
            _channel_analysis(2, 33),
        ],
    )
    assert "placement" not in identifiers(balanced)


def test_thresholds_are_configurable():
    analysis = make_analysis(counts={FailureType.MVCC_INTER_BLOCK: 3})
    assert "block-size" not in identifiers(analysis)
    assert "block-size" in identifiers(analysis, mvcc_threshold_pct=2.0)


# ---------------------------------------------------------------- retry rules
def test_enable_retries_rule_triggers_when_failures_are_lost():
    lossy = make_analysis(counts={FailureType.MVCC_INTER_BLOCK: 15})
    assert "enable-retries" in identifiers(lossy)
    # Below the failure threshold there is little to recover.
    quiet = make_analysis(counts={FailureType.MVCC_INTER_BLOCK: 5})
    assert "enable-retries" not in identifiers(quiet)
    # With retries already enabled the rule has nothing to recommend.
    retrying = make_analysis(
        counts={FailureType.MVCC_INTER_BLOCK: 15},
        config=NetworkConfig(
            cluster="C1", database="leveldb", retry=RetryConfig(policy="jittered")
        ),
    )
    assert "enable-retries" not in identifiers(retrying)


def test_jittered_backoff_rule_targets_synchronized_policies_under_mvcc():
    def analysis_with(policy: str, mvcc: int) -> ExperimentAnalysis:
        return make_analysis(
            counts={FailureType.MVCC_INTER_BLOCK: mvcc},
            config=NetworkConfig(
                cluster="C1", database="leveldb", retry=RetryConfig(policy=policy)
            ),
        )

    assert "jittered-backoff" in identifiers(analysis_with("immediate", 10))
    assert "jittered-backoff" in identifiers(analysis_with("fixed", 10))
    # Already decorrelated, or not MVCC-dominated: nothing to fix.
    assert "jittered-backoff" not in identifiers(analysis_with("jittered", 10))
    assert "jittered-backoff" not in identifiers(analysis_with("immediate", 2))


def test_retry_rate_cap_rule_triggers_on_uncapped_amplification():
    def analysis_with(amplification: float, rate_cap=None) -> ExperimentAnalysis:
        analysis = make_analysis(
            counts={FailureType.MVCC_INTER_BLOCK: 2},
            config=NetworkConfig(
                cluster="C1",
                database="leveldb",
                retry=RetryConfig(policy="immediate", rate_cap=rate_cap),
            ),
        )
        # retry_amplification = submitted attempts / logical requests
        analysis.metrics.logical_requests = int(
            analysis.metrics.submitted_transactions / amplification
        )
        return analysis

    assert "retry-rate-cap" in identifiers(analysis_with(2.0))
    # Mild amplification, or a cap already in place: no storm to contain.
    assert "retry-rate-cap" not in identifiers(analysis_with(1.1))
    assert "retry-rate-cap" not in identifiers(analysis_with(2.0, rate_cap=25.0))


def test_endorsement_quorum_slack_rule_triggers_on_peer_faults():
    crashy = make_analysis(
        counts={FailureType.PEER_UNAVAILABLE: 3, FailureType.ENDORSEMENT_TIMEOUT: 2}
    )
    assert "endorsement-quorum-slack" in identifiers(crashy)
    # A single stray timeout stays below the threshold.
    quiet = make_analysis(counts={FailureType.ENDORSEMENT_TIMEOUT: 1}, total=200)
    assert "endorsement-quorum-slack" not in identifiers(quiet)
    # Orderer outages alone are not a peer-quorum problem.
    outage_only = make_analysis(counts={FailureType.ORDERER_UNAVAILABLE: 10})
    assert "endorsement-quorum-slack" not in identifiers(outage_only)


def test_retry_under_outage_rule_triggers_without_retries():
    blipped = make_analysis(counts={FailureType.ORDERER_UNAVAILABLE: 5})
    assert "retry-under-outage" in identifiers(blipped)
    # With retries already enabled the blip losses are being resubmitted.
    retrying = make_analysis(
        counts={FailureType.ORDERER_UNAVAILABLE: 5},
        config=NetworkConfig(
            cluster="C1", database="leveldb", retry=RetryConfig(policy="jittered")
        ),
    )
    assert "retry-under-outage" not in identifiers(retrying)
    # Below the outage threshold there is nothing to ride out.
    quiet = make_analysis(counts={FailureType.ORDERER_UNAVAILABLE: 0})
    assert "retry-under-outage" not in identifiers(quiet)


# ------------------------------------------- from the analysis, not the chain
def _cell(workload, zipf_skew=1.0, **network) -> ExperimentConfig:
    options = dict(cluster="C1", clients=2, block_size=10, database="leveldb")
    options.update(network)
    return ExperimentConfig(
        workload=workload,
        network=NetworkConfig(**options),
        arrival_rate=60.0,
        duration=2.0,
        zipf_skew=zipf_skew,
        seed=5,
    )


#: name -> (cell, an identifier the cell must yield, one it must not).
REAL_CELLS = {
    "couchdb-without-rich-queries": (
        _cell(uniform_workload("EHR", patients=30), database="couchdb"),
        "leveldb",
        "range-queries",
    ),
    # Endorsers execute on copy-on-write overlays, which take the range-scan
    # path, so no simulated cell charges ``GetQueryResult``: the test stamps
    # one such call on this cell's chain and parses the chain again.
    "couchdb-with-rich-queries": (
        _cell(uniform_workload("SCM"), database="couchdb"),
        "range-queries",
        "leveldb",
    ),
    "read-heavy": (_cell(synthetic_workload("RH", num_keys=200)), "read-only", "leveldb"),
    "4-channel-skewed": (
        _cell(
            uniform_workload("EHR", patients=30),
            zipf_skew=2.0,
            channels=4,
            cross_channel_rate=0.2,
            placement="range",
        ),
        "reordering",
        "channel-count",
    ),
}


@pytest.mark.parametrize("name", list(REAL_CELLS))
def test_detached_analysis_yields_the_recommendations_of_the_attached_one(name):
    config, expected, absent = REAL_CELLS[name]
    attached = run_repetition(config, 0)
    transactions = attached.record.transactions
    if name == "couchdb-with-rich-queries":
        transactions[0].db_call_latency["GetQueryResult"] = 0.02
        attached = LedgerAnalyzer().analyze(attached.record)
    # The two facts equal the scans over the chain they replaced.
    assert attached.read_only_share == sum(tx.read_only for tx in transactions) / len(transactions)
    assert ("GetQueryResult" in attached.metrics.function_call_latency_ms) == any(
        "GetQueryResult" in tx.db_call_latency for tx in transactions
    )
    engine = RecommendationEngine()
    from_chain = engine.recommend(attached)
    # Recommendation equality covers identifier, title and rationale text.
    assert from_chain == engine.recommend(attached.detached())
    assert expected in {r.identifier for r in from_chain}
    assert absent not in {r.identifier for r in from_chain}
