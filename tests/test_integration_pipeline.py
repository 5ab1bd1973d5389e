"""End-to-end integration tests of the Execute-Order-Validate pipeline.

These tests run small but complete experiments through the public harness and
check cross-module invariants: ledger consistency, agreement between the
validator's codes and the reported failure classes, conservation of
transactions across the pipeline stages, and the behaviour of each Fabric
variant.
"""

from __future__ import annotations

import pytest
from failure_oracle import replay_chain

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.core.failures import FailureType, failure_type_of
from repro.ledger.block import ValidationCode
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.workload.distributions import make_distribution
from repro.workload.workloads import delete_heavy, synthetic_workload, uniform_workload


def small_config(variant="fabric-1.4", workload=None, **net_overrides) -> ExperimentConfig:
    network_kwargs = dict(cluster="C1", clients=2, block_size=10, database="leveldb")
    network_kwargs.update(net_overrides)
    network = NetworkConfig(**network_kwargs)
    return ExperimentConfig(
        variant=variant,
        workload=workload or uniform_workload("EHR", patients=40),
        network=network,
        arrival_rate=60.0,
        duration=3.0,
        repetitions=1,
        seed=21,
    )


@pytest.fixture(scope="module")
def fabric14_analysis():
    return run_experiment(small_config()).analyses[0]


def test_transaction_conservation(fabric14_analysis):
    record = fabric14_analysis.record
    assert record.ledger.transaction_count + len(record.early_aborted) + len(
        record.read_only_skipped
    ) == len(record.transactions)


def test_every_ledger_transaction_is_validated_and_timed(fabric14_analysis):
    for block in fabric14_analysis.record.ledger:
        assert block.size >= 1
        for index, tx in enumerate(block.transactions):
            assert tx.validation_code is not None
            assert tx.block_number == block.number
            assert tx.tx_index == index
            assert tx.endorsements, "every ordered transaction carries endorsements"
            assert tx.ordered_at is not None and tx.ordered_at >= tx.submitted_at
            assert tx.committed_at is not None and tx.committed_at >= tx.ordered_at


def test_block_sizes_respect_configuration(fabric14_analysis):
    block_size = fabric14_analysis.record.config.block_size
    for block in fabric14_analysis.record.ledger:
        assert block.size <= block_size


def test_classifier_agrees_with_validation_codes(fabric14_analysis):
    code_by_failure = {
        FailureType.ENDORSEMENT_POLICY: ValidationCode.ENDORSEMENT_POLICY_FAILURE,
        FailureType.MVCC_INTRA_BLOCK: ValidationCode.MVCC_READ_CONFLICT,
        FailureType.MVCC_INTER_BLOCK: ValidationCode.MVCC_READ_CONFLICT,
        FailureType.PHANTOM_READ: ValidationCode.PHANTOM_READ_CONFLICT,
        FailureType.ORDERING_ABORT: ValidationCode.ABORTED_BY_REORDERING,
    }
    on_chain = 0
    for failure_type, code in code_by_failure.items():
        for tx in fabric14_analysis.failures_of_type(failure_type):
            assert tx.validation_code is code
            on_chain += 1
    assert on_chain == len(fabric14_analysis.record.ledger.failed_transactions())


def test_mvcc_conflicting_block_is_never_in_the_future(fabric14_analysis):
    for tx in fabric14_analysis.failed_transactions:
        if failure_type_of(tx).is_mvcc:
            assert tx.conflicting_block <= tx.block_number


def test_failure_percentages_add_up(fabric14_analysis):
    report = fabric14_analysis.failure_report
    ledger = fabric14_analysis.record.ledger
    assert report.recorded_failures == len(ledger.failed_transactions())
    assert report.total_transactions >= ledger.transaction_count


def test_committed_state_reflects_only_valid_transactions():
    """The valid write sets, replayed from the chain, end in the canonical store's versions."""
    deleted = 0
    for workload in (uniform_workload("EHR", patients=40), delete_heavy()):
        config = small_config(workload=workload)
        deployment = build_network(
            config.network, config.build_chaincode, config.variant, seed=config.seed
        )
        record = deployment.run(
            mix=config.workload.mix,
            arrival_rate=config.arrival_rate,
            duration=config.duration,
            key_distribution=make_distribution(config.zipf_skew),
            workload_name=config.workload.name,
        )
        _verdicts, replayed = replay_chain(record.ledger)
        store = deployment.channels[0].validator.store
        written = {
            write.key
            for tx in record.ledger.committed_transactions()
            for write in tx.rwset.writes
        }
        assert written and set(replayed.versions) == written
        for key, version in replayed.versions.items():
            assert store.get_version(key) == version, (workload.name, key)
        deleted += sum(version is None for version in replayed.versions.values())
    assert deleted, "no cell left a deleted key behind"


# ------------------------------------------------------------------- variants
def test_fabricsharp_never_records_mvcc_conflicts():
    config = small_config(variant="fabricsharp")
    analysis = run_experiment(config).analyses[0]
    codes = {tx.validation_code for tx in analysis.record.ledger.transactions()}
    assert ValidationCode.MVCC_READ_CONFLICT not in codes
    assert ValidationCode.PHANTOM_READ_CONFLICT not in codes
    assert analysis.failure_report.mvcc_pct == 0.0


def test_fabricsharp_early_aborts_shrink_the_blockchain():
    fabric = run_experiment(small_config()).analyses[0]
    sharp = run_experiment(small_config(variant="fabricsharp")).analyses[0]
    # Early-aborted transactions never reach a block, so the chain holds fewer
    # transactions than Fabric 1.4's for the same submitted load.
    assert sharp.record.ledger.transaction_count <= fabric.record.ledger.transaction_count
    assert sharp.record.early_aborted
    assert sharp.failure_report.total_failure_pct <= fabric.failure_report.total_failure_pct


def test_fabricpp_records_reordering_aborts_on_the_ledger():
    config = small_config(variant="fabric++")
    config.network = config.network.copy(block_size=30)
    analysis = run_experiment(config).analyses[0]
    reordered_blocks = [block for block in analysis.record.ledger if block.reordered]
    assert reordered_blocks, "Fabric++ must reorder blocks"
    # Ordering aborts, if any, stay on the ledger.
    for tx in analysis.record.ledger.transactions():
        assert tx.validation_code is not ValidationCode.EARLY_ABORT


def test_streamchain_blocks_contain_exactly_one_transaction():
    analysis = run_experiment(small_config(variant="streamchain")).analyses[0]
    assert all(block.size == 1 for block in analysis.record.ledger)


def test_read_only_filtering_shrinks_the_ledger():
    submit_all = run_experiment(small_config()).analyses[0]
    skip_reads = run_experiment(small_config(submit_read_only=False)).analyses[0]
    assert skip_reads.record.read_only_skipped
    assert (
        skip_reads.record.ledger.transaction_count < submit_all.record.ledger.transaction_count
    )


def test_repetitions_use_different_seeds():
    config = small_config()
    config.repetitions = 2
    result = run_experiment(config)
    first, second = result.metrics
    assert first.submitted_transactions != second.submitted_transactions or (
        first.average_latency != second.average_latency
    )


def test_couchdb_range_workload_records_phantom_or_slow_latency():
    config = small_config(
        workload=synthetic_workload("RaH", num_keys=2000), database="couchdb"
    )
    config.arrival_rate = 40
    analysis = run_experiment(config).analyses[0]
    metrics = analysis.metrics
    assert metrics.function_call_latency_ms.get("GetRange", 0) > 0
