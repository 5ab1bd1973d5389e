"""Unit tests for metrics, the ledger analyzer and the recommendation engine."""

from __future__ import annotations

import pytest

from repro.bench.harness import run_experiment
from repro.core.failures import FailureType
from repro.core.metrics import FailureReport, build_failure_report, compute_metrics
from repro.core.recommendations import RecommendationEngine
from repro.ledger.block import Transaction, ValidationCode


# ----------------------------------------------------------------- FailureReport
def make_report(total=100, **counts):
    mapped = {FailureType[name.upper()]: value for name, value in counts.items()}
    return FailureReport(total_transactions=total, counts=mapped)


def test_failure_report_percentages():
    report = make_report(
        total=200,
        endorsement_policy=4,
        mvcc_intra_block=10,
        mvcc_inter_block=6,
        phantom_read=2,
    )
    assert report.endorsement_pct == pytest.approx(2.0)
    assert report.intra_block_mvcc_pct == pytest.approx(5.0)
    assert report.inter_block_mvcc_pct == pytest.approx(3.0)
    assert report.mvcc_pct == pytest.approx(8.0)
    assert report.phantom_pct == pytest.approx(1.0)
    assert report.total_failure_pct == pytest.approx(11.0)


def test_failure_report_excludes_early_aborts_from_recorded_failures():
    report = make_report(total=100, mvcc_intra_block=10, early_abort=20, ordering_abort=5)
    assert report.recorded_failures == 15
    assert report.total_failures == 35
    assert report.total_failure_pct == pytest.approx(15.0)
    assert report.early_abort_pct == pytest.approx(20.0)
    assert report.ordering_abort_pct == pytest.approx(5.0)


def test_failure_report_empty_is_all_zero():
    report = FailureReport(total_transactions=0)
    assert report.total_failure_pct == 0.0
    assert report.mvcc_pct == 0.0
    assert report.as_dict()["total"] == 0.0


def test_build_failure_report_counts_types():
    def failed(code, **stamp):
        return Transaction(
            tx_id="tx", client_name="c", chaincode_name="t", function="f",
            validation_code=code, **stamp,
        )

    items = [
        failed(ValidationCode.MVCC_READ_CONFLICT, block_number=3, conflicting_block=3),
        failed(ValidationCode.MVCC_READ_CONFLICT, block_number=4, conflicting_block=4),
        failed(ValidationCode.PHANTOM_READ_CONFLICT, block_number=4, conflicting_block=2),
    ]
    report = build_failure_report(items, total_transactions=10)
    assert report.count(FailureType.MVCC_INTRA_BLOCK) == 2
    assert report.count(FailureType.PHANTOM_READ) == 1
    assert report.count(FailureType.ENDORSEMENT_POLICY) == 0


# --------------------------------------------------------------------- end to end
def test_compute_metrics_on_a_real_run(tiny_experiment):
    result = run_experiment(tiny_experiment)
    analysis = result.analyses[0]
    metrics = analysis.metrics
    assert metrics.submitted_transactions > 50
    assert metrics.committed_transactions > 0
    assert metrics.blocks > 0
    assert metrics.average_block_fill > 0
    assert 0 < metrics.average_latency < 30
    assert metrics.committed_throughput > 0
    assert metrics.successful_throughput <= metrics.committed_throughput
    assert 0 <= metrics.failure_pct <= 100
    assert "GetState" in metrics.function_call_latency_ms


def test_metrics_failure_breakdown_is_consistent(tiny_experiment):
    result = run_experiment(tiny_experiment)
    metrics = result.analyses[0].metrics
    report = metrics.failure_report
    total = (
        report.endorsement_pct
        + report.mvcc_pct
        + report.phantom_pct
        + report.ordering_abort_pct
    )
    assert report.total_failure_pct == pytest.approx(total, abs=1e-6)


def test_analyzer_produces_classified_failures(tiny_experiment):
    result = run_experiment(tiny_experiment)
    analysis = result.analyses[0]
    failed_on_ledger = len(analysis.record.ledger.failed_transactions())
    assert len(analysis.failed_transactions) == failed_on_ledger + len(analysis.record.early_aborted)
    for tx in analysis.failures_of_type(FailureType.MVCC_INTRA_BLOCK):
        assert tx.conflicting_key is not None


def test_analyzer_hottest_keys_are_ranked(tiny_experiment):
    analysis = run_experiment(tiny_experiment).analyses[0]
    hottest = analysis.hottest_conflicting_keys(limit=3)
    assert len(hottest) <= 3
    counts = [count for _key, count in hottest]
    assert counts == sorted(counts, reverse=True)


def test_compute_metrics_accepts_precomputed_classification(tiny_experiment):
    result = run_experiment(tiny_experiment)
    analysis = result.analyses[0]
    recomputed = compute_metrics(analysis.record, analysis.failed_transactions)
    assert recomputed.failure_pct == pytest.approx(analysis.metrics.failure_pct)


# ----------------------------------------------------------------- recommendations
def test_recommendation_engine_flags_high_mvcc_and_couchdb(tiny_experiment):
    tiny_experiment.network = tiny_experiment.network.copy(database="couchdb")
    tiny_experiment.arrival_rate = 80.0
    analysis = run_experiment(tiny_experiment).analyses[0]
    engine = RecommendationEngine(mvcc_threshold_pct=1.0, endorsement_threshold_pct=0.1)
    identifiers = {recommendation.identifier for recommendation in engine.recommend(analysis)}
    assert "block-size" in identifiers
    assert "leveldb" in identifiers
    assert "read-only" in identifiers


def test_recommendation_engine_quiet_on_healthy_run(tiny_experiment):
    analysis = run_experiment(tiny_experiment).analyses[0]
    engine = RecommendationEngine(
        mvcc_threshold_pct=101.0,
        endorsement_threshold_pct=101.0,
        phantom_threshold_pct=101.0,
        read_only_share_threshold=1.1,
    )
    recommendations = engine.recommend(analysis)
    identifiers = {recommendation.identifier for recommendation in recommendations}
    assert "block-size" not in identifiers
    assert "endorsement-policy" not in identifiers


def test_recommendation_for_network_delay(tiny_experiment):
    tiny_experiment.network = tiny_experiment.network.copy(delayed_orgs=(0,))
    analysis = run_experiment(tiny_experiment).analyses[0]
    engine = RecommendationEngine()
    identifiers = {recommendation.identifier for recommendation in engine.recommend(analysis)}
    assert "network-delay" in identifiers


def test_recommendations_render_as_text(tiny_experiment):
    analysis = run_experiment(tiny_experiment).analyses[0]
    for recommendation in RecommendationEngine(mvcc_threshold_pct=0.0).recommend(analysis):
        text = str(recommendation)
        assert recommendation.title in text
        assert recommendation.paper_section
