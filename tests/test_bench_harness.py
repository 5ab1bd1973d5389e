"""Unit tests for the benchmark harness and reporting."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig, pct_column, run_experiment
from repro.bench.reporting import format_series, format_table, format_value
from repro.chaincode import CHAINCODE_REGISTRY
from repro.chaincode.genchain import GenChainChaincode
from repro.chaincode.generator import ChaincodeGenerator, FunctionSpec
from repro.core.failures import FailureType
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


@pytest.mark.parametrize("repetitions", [1.5, True, "2", 0])
def test_repetitions_must_be_a_whole_number_of_at_least_one(repetitions):
    # 1.5 used to pass and then fail in ``range``; True used to run once.
    with pytest.raises(ConfigurationError, match=f"repetitions must be .*got {repetitions!r}"):
        run_experiment(tiny_config(repetitions=repetitions))


def test_an_unregistered_chaincode_is_refused_until_it_is_registered(monkeypatch):
    spec = WorkloadSpec(
        name="custom",
        chaincode="custom",
        mix=TransactionMix.from_dict({"readKey": 1.0}),
        chaincode_kwargs={"num_keys": 100},
    )
    config = tiny_config(workload=spec)
    with pytest.raises(ConfigurationError, match="'custom' is not registered"):
        config.validate()
    monkeypatch.setitem(CHAINCODE_REGISTRY, "custom", GenChainChaincode)
    result = run_experiment(config)
    assert result.value("submitted_transactions") > 0


@pytest.mark.parametrize(
    "chaincode, kwargs, message",
    [
        ("EHR", {"bogus": 1}, "unexpected keyword argument 'bogus'"),
        ("genChain", {"num_keys": 100, "active": 10}, "unexpected keyword argument 'active'"),
        ("generated", {"name": "assets"}, "missing a required argument: 'functions'"),
        ("EHR", {"patients": lambda: 30}, r"workload.chaincode_kwargs\['patients'\] must be data"),
        ("SCM", {"units_per_lsp": [10, {3}]}, r"workload.chaincode_kwargs\['units_per_lsp'\] must be"),
        (
            "generated",
            {"name": "assets", "functions": (FunctionSpec("read", reads=1), print)},
            r"workload.chaincode_kwargs\['functions'\] must be data",
        ),
    ],
)
def test_validate_binds_chaincode_kwargs_and_requires_data(chaincode, kwargs, message):
    # Each used to pass ``validate()`` and fail at build time, possibly in a
    # pool worker (or, for a callable, to hash by its bytecode).
    workload = WorkloadSpec(
        name="w",
        chaincode=chaincode,
        mix=TransactionMix.from_dict({"f": 1.0}),
        chaincode_kwargs=kwargs,
    )
    with pytest.raises(ConfigurationError, match=message):
        tiny_config(workload=workload).validate()


def test_an_unknown_variant_is_refused_before_anything_runs():
    # ``variant="besu"`` used to pass ``validate()`` and fail in a pool
    # worker after the pool had started.
    known = r"'besu'; known variants: fabric\+\+, fabric-1.4, fabricsharp, streamchain"
    with pytest.raises(ConfigurationError, match=known):
        tiny_config(variant="besu").validate()
    tiny_config(variant="Fabric#").validate()


def test_rich_queries_on_a_network_without_couchdb_are_refused():
    # Used to pass ``validate()`` and die with ``UnsupportedFeatureError`` at
    # the first rich query, in the middle of the simulation.
    generator = ChaincodeGenerator(name="assets", database="couchdb", num_keys=100)
    generator.add_function(FunctionSpec("find", rich_queries=1))
    generator.add_function(FunctionSpec("read", reads=1))
    both = generator.workload("w", TransactionMix.from_dict({"find": 1.0, "read": 1.0}))
    with pytest.raises(
        ConfigurationError,
        match=r"find of workload.chaincode_kwargs\['database'\] = 'couchdb' run rich queries, "
        r"which need network.database = 'couchdb', got 'leveldb'",
    ):
        tiny_config(workload=both).validate()
    tiny_config(workload=both, network=tiny_config().network.copy(database="couchdb")).validate()
    # A function the mix never draws never runs.
    reads = generator.workload("w", TransactionMix.from_dict({"find": 0.0, "read": 1.0}))
    assert run_experiment(tiny_config(workload=reads)).value("submitted_transactions") > 0


def test_with_overrides_returns_modified_copy():
    config = tiny_config()
    changed = config.with_overrides(arrival_rate=99.0)
    assert changed.arrival_rate == 99.0
    assert config.arrival_rate == 40.0


def test_run_experiment_respects_repetitions():
    result = run_experiment(tiny_config(repetitions=2))
    assert len(result.analyses) == 2
    assert len(result.metrics) == 2
    assert result.value("submitted_transactions") == sum(
        metric.submitted_transactions for metric in result.metrics
    )


def test_run_experiment_is_deterministic_for_a_seed():
    first = run_experiment(tiny_config())
    second = run_experiment(tiny_config())
    for column in ("failures_pct", "latency_s"):
        assert first.value(column) == second.value(column)


def test_result_aggregates_are_within_bounds():
    result = run_experiment(tiny_config())
    for column in ("failures_pct", "mvcc_pct", *map(pct_column, FailureType)):
        assert 0.0 <= result.value(column) <= 100.0
    assert result.value("mvcc_pct") == pytest.approx(
        result.value("mvcc_intra_block_pct") + result.value("mvcc_inter_block_pct")
    )
    assert result.value("latency_s") > 0
    assert result.value("committed_throughput_tps") > 0
    assert result.value("GetState_ms") > 0
    assert result.value("DeleteState_ms") == 0.0  # EHR never deletes


def test_variant_selection_changes_behaviour():
    fabric = run_experiment(tiny_config())
    sharp = run_experiment(tiny_config(variant="fabricsharp"))
    assert sharp.value("mvcc_pct") == 0.0
    assert fabric.value("submitted_transactions") > 0


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
