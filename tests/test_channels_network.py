"""End-to-end tests for the multi-channel network and cross-channel 2PC."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, run_experiment, run_repetition
from repro.bench.runner import ExperimentRunner, ResultCache
from repro.channels.group import GroupResult, RunArgs
from repro.channels.merge import merge_group_results
from repro.core.failures import MVCC, FailureType
from repro.errors import ConfigurationError, SimulationError
from repro.ledger.block import ValidationCode
from repro.ledger.ledger import Ledger
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.tally import ChannelTally
from repro.network.config import NetworkConfig
from repro.network.network import ChannelRecord, RunRecord
from repro.observability.observer import ObservabilityData
from repro.workload.workloads import uniform_workload


def channel_config(
    channels: int,
    cross_channel_rate: float = 0.0,
    placement: str = "hash",
    arrival_rate: float = 120.0,
    duration: float = 2.5,
    seed: int = 11,
) -> ExperimentConfig:
    """A small multi-channel experiment that runs in well under a second."""
    return ExperimentConfig(
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(
            cluster="C1",
            orgs=2,
            peers_per_org=2,
            clients=2,
            block_size=10,
            database="leveldb",
            channels=channels,
            placement=placement,
            cross_channel_rate=cross_channel_rate,
        ),
        arrival_rate=arrival_rate,
        duration=duration,
        zipf_skew=1.0,
        seed=seed,
    )


# ------------------------------------------------------------------ structure
def test_multi_channel_run_produces_per_channel_records():
    analysis = run_experiment(channel_config(channels=3), record_chain=True).analyses[0]
    record = analysis.record
    assert len(record.channel_records) == 3
    assert [channel.name for channel in record.channel_records] == [
        "channel0",
        "channel1",
        "channel2",
    ]
    # The aggregate ledger is empty; each channel has its own chain.
    assert record.ledger.height == 0
    assert sum(channel.ledger.height for channel in record.channel_records) > 0
    # Every submitted transaction is stamped with its home channel and the
    # aggregate equals the union of the channels.
    assert all(tx.channel is not None for tx in record.transactions)
    per_channel = sum(len(ch.record.transactions) for ch in record.channel_records)
    assert len(record.transactions) == per_channel
    assert len(analysis.channel_analyses) == 3
    totals = sum(ca.metrics.submitted_transactions for ca in analysis.channel_analyses)
    assert analysis.metrics.submitted_transactions == totals


def test_multi_channel_metrics_aggregate_across_chains():
    analysis = run_experiment(channel_config(channels=2)).analyses[0]
    metrics = analysis.metrics
    channel_metrics = [channel.metrics for channel in analysis.channel_analyses]
    assert metrics.blocks == sum(m.blocks for m in channel_metrics)
    assert metrics.committed_transactions == sum(m.committed_transactions for m in channel_metrics)
    assert metrics.committed_throughput > 0
    report = analysis.failure_report
    total = report.pct(
        FailureType.ENDORSEMENT_POLICY, *MVCC, FailureType.PHANTOM_READ, FailureType.ORDERING_ABORT
    )
    assert report.total_failure_pct == pytest.approx(total, abs=1e-6)


def test_cross_channel_rate_requires_multiple_channels():
    with pytest.raises(ConfigurationError):
        NetworkConfig(channels=1, cross_channel_rate=0.5).validate()


# ---------------------------------------------------------------- determinism
def test_multi_channel_runs_are_deterministic():
    first = run_experiment(channel_config(channels=3, cross_channel_rate=0.3)).analyses[0]
    second = run_experiment(channel_config(channels=3, cross_channel_rate=0.3)).analyses[0]
    assert first.metrics.submitted_transactions == second.metrics.submitted_transactions
    assert first.metrics.committed_throughput == pytest.approx(
        second.metrics.committed_throughput
    )
    assert first.failure_report.as_dict() == second.failure_report.as_dict()
    firsts = [channel.metrics.submitted_transactions for channel in first.channel_analyses]
    seconds = [channel.metrics.submitted_transactions for channel in second.channel_analyses]
    assert firsts == seconds


def test_multi_channel_results_are_cache_and_runner_stable(tmp_path):
    config = channel_config(channels=2, cross_channel_rate=0.2)
    runner = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    fresh = runner.run(config)
    assert runner.stats.tasks_run == 1
    cached = runner.run(config)
    assert runner.stats.cache_hits == 1
    for column in ("failures_pct", "cross_channel_abort_pct"):
        assert cached.value(column) == pytest.approx(fresh.value(column))


def test_channels_one_is_bit_identical_to_the_classic_path():
    """``channels=1`` must take exactly the single-channel code path."""
    explicit = channel_config(channels=1)
    explicit.network = explicit.network.copy(channels=1)
    direct = run_repetition(explicit, 0)
    assert not direct.record.channel_records  # the merge is the channel's own record
    # Same configuration through the parallel runner: identical results.
    runner = ExperimentRunner(workers=2, cache=None)
    result = runner.run(explicit.with_overrides(repetitions=2))
    assert result.analyses[0].metrics.submitted_transactions == (
        direct.metrics.submitted_transactions
    )
    assert result.analyses[0].metrics.committed_throughput == pytest.approx(
        direct.metrics.committed_throughput
    )
    assert result.analyses[0].failure_report.as_dict() == direct.failure_report.as_dict()


# -------------------------------------------------------------------- scaling
def test_channel_scaling_raises_throughput_and_lowers_mvcc():
    """The acceptance shape: more channels -> more throughput, fewer MVCC aborts."""
    single = run_experiment(channel_config(1, arrival_rate=400.0, duration=4.0)).analyses[0]
    sharded = run_experiment(channel_config(4, arrival_rate=400.0, duration=4.0)).analyses[0]
    assert sharded.metrics.committed_throughput > 1.5 * single.metrics.committed_throughput
    assert sharded.failure_report.pct(*MVCC) < single.failure_report.pct(*MVCC)


# -------------------------------------------------------------- cross-channel
def test_cross_channel_transactions_are_marked_and_coordinated():
    analysis = run_experiment(
        channel_config(channels=2, cross_channel_rate=0.5, arrival_rate=200.0), record_chain=True
    ).analyses[0]
    record = analysis.record
    cross = [tx for tx in record.transactions if tx.partner_channel is not None]
    assert cross, "a 50% cross-channel rate must produce cross-channel transactions"
    for tx in cross:
        assert tx.partner_channel != tx.channel
        assert 0 <= tx.partner_channel < 2
    submitted = sum(ch.cross_channel_submitted for ch in record.channel_records)
    assert submitted == len(cross)


def test_cross_channel_aborts_form_their_own_failure_class():
    analysis = run_experiment(
        channel_config(channels=2, cross_channel_rate=0.6, arrival_rate=300.0, duration=4.0),
        record_chain=True,
    ).analyses[0]
    report = analysis.failure_report
    aborted = analysis.failures_of_type(FailureType.CROSS_CHANNEL_ABORT)
    assert aborted, "heavy cross-channel traffic must produce prepare aborts"
    for tx in aborted:
        assert tx.validation_code is ValidationCode.CROSS_CHANNEL_ABORT
        assert tx.partner_channel is not None
        assert tx.block_number is None  # never reached a block
    assert report.pct(FailureType.CROSS_CHANNEL_ABORT) > 0
    # Never-on-chain aborts stay out of the blockchain-parsed headline number.
    assert report.count(FailureType.CROSS_CHANNEL_ABORT) == len(aborted)
    assert report.recorded_failures == report.total_failures - report.count(
        FailureType.CROSS_CHANNEL_ABORT
    ) - report.count(FailureType.EARLY_ABORT)
    per_channel = sum(ch.cross_channel_aborted for ch in analysis.record.channel_records)
    assert per_channel == len(aborted)


def test_aggregate_record_reports_the_variant_configured_parameters():
    """Streamchain forces block_size=1; the aggregate record must show it."""
    config = channel_config(channels=2)
    config.variant = "streamchain"
    analysis = run_experiment(config).analyses[0]
    assert analysis.record.config.block_size == 1
    assert analysis.metrics.block_size == 1
    for channel in analysis.channel_analyses:
        assert channel.metrics.block_size == 1


def test_cross_channel_rate_zero_produces_no_cross_traffic():
    analysis = run_experiment(channel_config(channels=4), record_chain=True).analyses[0]
    assert all(tx.partner_channel is None for tx in analysis.record.transactions)
    assert analysis.failure_report.pct(FailureType.CROSS_CHANNEL_ABORT) == 0.0


# ------------------------------------------------------------------ placement
def test_hot_placement_concentrates_traffic_on_channel_zero():
    analysis = run_experiment(
        channel_config(channels=4, placement="hot", arrival_rate=200.0)
    ).analyses[0]
    submitted = {
        channel.index: channel.metrics.submitted_transactions
        for channel in analysis.channel_analyses
    }
    assert submitted[0] > max(submitted[c] for c in (1, 2, 3))


# ---------------------------------------------------------------------- merge
def _group_result(*indices: int):
    """A hand-built result of one group that collected ``indices``."""
    records = [
        ChannelRecord(
            index=index,
            name=f"channel{index}",
            record=RunRecord(
                config=NetworkConfig(channels=2),
                variant_name="fabric-1.4",
                chaincode_name="EHR",
                workload_name="custom",
                arrival_rate=1.0,
                duration=1.0,
                seed=7,
            ),
        )
        for index in indices
    ]
    tallies = {
        index: ChannelTally(LifecycleBus(), Ledger(keep_blocks=False)).close()
        for index in indices
    }
    loads = {index: {"orderer": (0.0, 1), "validation": [], "endorsement": []} for index in indices}
    return GroupResult(records=records, tallies=tallies, loads=loads, end=1.0)


def _merge(results):
    return merge_group_results(
        results,
        config=NetworkConfig(channels=2),
        seed=7,
        args=RunArgs(None, 1.0, 1.0, None, "custom"),
        execution="sharded",
    )


def test_merge_accepts_exactly_one_record_per_channel():
    record = _merge([_group_result(1), _group_result(0)])
    assert [channel.index for channel in record.channel_records] == [0, 1]
    assert record.shard_count == 2


def test_merge_refuses_two_records_for_one_channel():
    with pytest.raises(SimulationError, match="channel 1 .*more than one group"):
        _merge([_group_result(0, 1), _group_result(1)])


def test_merge_refuses_a_missing_channel():
    with pytest.raises(SimulationError, match="channel 1 .*no group"):
        _merge([_group_result(0)])


def test_merge_refuses_observations_of_several_groups():
    # An observed run is planned on one clock; per-group observations have
    # no merge, so taking one group's would silently drop the others.
    results = [_group_result(0), _group_result(1)]
    for result in results:
        result.observability = ObservabilityData()
    with pytest.raises(SimulationError, match="one group on one clock"):
        _merge(results)
