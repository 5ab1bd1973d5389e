"""Unit tests for the recommendation engine: one test per rule.

The engine only looks at the failure report, the network configuration, the
run's transactions and (for the channel rules) the per-channel analyses, so
each rule can be exercised with a small synthetic analysis — no simulation
required.
"""

from __future__ import annotations

from typing import Dict, List, Optional


from repro.core.analyzer import ChannelAnalysis, ExperimentAnalysis
from repro.core.failures import FailureType
from repro.core.metrics import ExperimentMetrics, FailureReport
from repro.core.recommendations import RecommendationEngine
from repro.ledger.block import Transaction
from repro.ledger.ledger import Ledger
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.network.network import RunRecord


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
    transactions: Optional[List[Transaction]] = None,
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
        transactions=transactions or [],
    )
    return ExperimentAnalysis(
        record=record,
        metrics=make_metrics(report, orderer_utilization=orderer_utilization),
        channel_analyses=channel_analyses or [],
    )


def make_tx(read_only: bool = False, db_calls: Optional[Dict[str, float]] = None) -> Transaction:
    tx = Transaction(
        tx_id=f"tx-{id(object())}",
        client_name="c",
        chaincode_name="EHR",
        function="f",
        read_only=read_only,
    )
    tx.db_call_latency = db_calls or {}
    return tx


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
    plain = make_analysis(config=couch, transactions=[make_tx(db_calls={"GetState": 0.01})])
    assert "leveldb" in identifiers(plain)
    rich = make_analysis(
        config=couch, transactions=[make_tx(db_calls={"GetQueryResult": 0.02})]
    )
    assert "leveldb" not in identifiers(rich)
    level = make_analysis(transactions=[make_tx(db_calls={"GetState": 0.01})])
    assert "leveldb" not in identifiers(level)


def test_read_only_rule_triggers_on_read_heavy_submission():
    transactions = [make_tx(read_only=True)] * 4 + [make_tx()] * 6
    analysis = make_analysis(transactions=transactions)
    assert "read-only" in identifiers(analysis)
    skipping = make_analysis(
        config=NetworkConfig(cluster="C1", database="leveldb", submit_read_only=False),
        transactions=transactions,
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
