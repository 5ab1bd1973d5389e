"""Unit tests for the benchmark harness and reporting."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.reporting import format_series, format_table, format_value
from repro.chaincode.genchain import GenChainChaincode
from repro.errors import ConfigurationError
from repro.network.config import NetworkConfig
from repro.workload.spec import TransactionMix, WorkloadSpec
from repro.workload.workloads import uniform_workload


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        workload=uniform_workload("EHR", patients=30),
        network=NetworkConfig(cluster="C1", clients=2, block_size=10, database="leveldb"),
        arrival_rate=40.0,
        duration=2.0,
        repetitions=1,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


# ---------------------------------------------------------------------- harness
def test_default_experiment_config_matches_table_3():
    config = ExperimentConfig()
    assert config.variant == "fabric-1.4"
    assert config.workload.chaincode == "EHR"
    assert config.arrival_rate == 100.0
    assert config.zipf_skew == 1.0


@pytest.mark.parametrize(
    "overrides",
    [
        {"arrival_rate": 0.0},
        {"duration": 0.0},
        {"repetitions": 0},
        {"zipf_skew": -0.5},
        # ``nan <= 0`` is false, so a bound has to reject NaN and inf itself:
        # a NaN rate prints a row of zeros, an infinite one never returns.
        {"arrival_rate": float("nan")},
        {"arrival_rate": float("inf")},
        {"duration": float("nan")},
        {"duration": float("inf")},
        {"zipf_skew": float("nan")},
        {"zipf_skew": float("inf")},
    ],
)
def test_experiment_config_validation(overrides):
    with pytest.raises(ConfigurationError):
        tiny_config(**overrides).validate()


def test_unregistered_chaincode_requires_factory():
    spec = WorkloadSpec(
        name="custom", chaincode="custom", mix=TransactionMix.from_dict({"readKey": 1.0})
    )
    config = tiny_config(workload=spec)
    with pytest.raises(ConfigurationError):
        config.validate()
    config = tiny_config(workload=spec, chaincode_factory=lambda: GenChainChaincode(num_keys=100))
    config.validate()
    result = run_experiment(config)
    assert result.submitted_transactions > 0


def test_with_overrides_returns_modified_copy():
    config = tiny_config()
    changed = config.with_overrides(arrival_rate=99.0)
    assert changed.arrival_rate == 99.0
    assert config.arrival_rate == 40.0


def test_run_experiment_respects_repetitions():
    result = run_experiment(tiny_config(repetitions=2))
    assert len(result.analyses) == 2
    assert len(result.metrics) == 2
    assert result.submitted_transactions == sum(
        metric.submitted_transactions for metric in result.metrics
    )


def test_run_experiment_is_deterministic_for_a_seed():
    first = run_experiment(tiny_config())
    second = run_experiment(tiny_config())
    assert first.failure_pct == pytest.approx(second.failure_pct)
    assert first.average_latency == pytest.approx(second.average_latency)


def test_result_aggregates_are_within_bounds():
    result = run_experiment(tiny_config())
    for value in (
        result.failure_pct,
        result.endorsement_pct,
        result.mvcc_pct,
        result.intra_block_mvcc_pct,
        result.inter_block_mvcc_pct,
        result.phantom_pct,
        result.early_abort_pct,
    ):
        assert 0.0 <= value <= 100.0
    assert result.mvcc_pct == pytest.approx(
        result.intra_block_mvcc_pct + result.inter_block_mvcc_pct
    )
    assert result.average_latency > 0
    assert result.committed_throughput > 0
    assert result.mean_function_latency_ms("GetState") > 0
    assert result.mean_function_latency_ms("NoSuchCall") == 0.0


def test_variant_selection_changes_behaviour():
    fabric = run_experiment(tiny_config())
    sharp = run_experiment(tiny_config(variant="fabricsharp"))
    assert sharp.mvcc_pct == 0.0
    assert fabric.submitted_transactions > 0


def test_harness_names_no_subsystem_config_class():
    # Cell identity is declared by the configs themselves (``identity()``),
    # so the harness needs to know none of them.
    import repro.bench.harness as harness

    for name in (
        "RetryConfig",
        "FaultConfig",
        "ObservabilityConfig",
        "CheckerConfig",
        "ExecutionConfig",
    ):
        assert not hasattr(harness, name), f"harness imports {name}"


# -------------------------------------------------------------------- reporting
def test_format_value_types():
    assert format_value(1.23456) == "1.23"
    assert format_value(7) == "7"
    assert format_value(True) == "yes"
    assert format_value("text") == "text"


def test_format_table_aligns_columns():
    table = format_table(
        ["name", "value"], [["a", 1.0], ["long-name", 22.5]], title="demo table"
    )
    lines = table.splitlines()
    assert lines[0] == "demo table"
    assert "name" in lines[1] and "value" in lines[1]
    assert len(lines) == 5
    assert all("|" in line for line in lines[1:] if "-+-" not in line)


def test_format_series():
    text = format_series("series", {10: 1.0, 50: 2.0})
    assert "series" in text
    assert "10" in text and "50" in text
