"""Unit tests for shard planning and process budgeting (``repro.sim.shard``)."""

from __future__ import annotations

import pytest

from repro.bench.harness import ExperimentConfig
from repro.channels.network import plan_groups
from repro.errors import ConfigurationError
from repro.network.config import NetworkConfig
from repro.sim.shard import (
    PROCESS_BUDGET_ENV,
    ExecutionConfig,
    connected_components,
    cross_channel_edges,
    plan_shards,
    process_budget,
    resolve_worker_count,
)
from repro.workload.workloads import uniform_workload


# ----------------------------------------------------------------- the graph
def test_zero_rate_has_no_edges():
    assert cross_channel_edges(8, 0.0) == []
    assert cross_channel_edges(8, 0.0, "neighbor") == []


def test_single_channel_has_no_edges_regardless_of_rate():
    assert cross_channel_edges(1, 0.5) == []


def test_uniform_partners_form_the_complete_graph():
    edges = cross_channel_edges(4, 0.1, "uniform")
    assert len(edges) == 6  # C(4, 2)
    assert (0, 3) in edges


def test_neighbor_partners_form_a_ring():
    assert cross_channel_edges(4, 0.1, "neighbor") == [(0, 1), (1, 2), (2, 3), (3, 0)]
    assert cross_channel_edges(2, 0.1, "neighbor") == [(0, 1)]


def test_unknown_strategy_is_treated_as_fully_coupled():
    assert len(cross_channel_edges(4, 0.1, "mystery")) == 6


def test_connected_components_without_edges_are_singletons():
    assert connected_components(3, []) == ((0,), (1,), (2,))


def test_connected_components_merge_across_edge_chains():
    assert connected_components(5, [(0, 2), (2, 4)]) == ((0, 2, 4), (1,), (3,))


def test_connected_components_reject_out_of_range_edges():
    with pytest.raises(ConfigurationError):
        connected_components(2, [(0, 5)])


# ------------------------------------------------------------------ the plan
def test_rate_zero_plan_gives_every_channel_its_own_shard():
    plan = plan_shards(4, 0.0)
    assert plan.shard_count == 4
    assert plan.is_partitioned
    assert plan.shards == ((0,), (1,), (2,), (3,))
    assert plan.shard_of(2) == 2


def test_coupled_plan_collapses_to_one_shard():
    plan = plan_shards(4, 0.1, "uniform")
    assert plan.shard_count == 1
    assert not plan.is_partitioned


def test_plan_rejects_zero_channels():
    with pytest.raises(ConfigurationError):
        plan_shards(0, 0.0)


def test_shard_of_rejects_unknown_channel():
    with pytest.raises(ConfigurationError):
        plan_shards(2, 0.0).shard_of(7)


# -------------------------------------------------------------- ExecutionConfig
def _plan(execution: ExecutionConfig, cross_channel_rate: float = 0.0) -> str:
    config = NetworkConfig(
        channels=4, cross_channel_rate=cross_channel_rate, execution=execution
    )
    return plan_groups(config)[0]


def test_execution_config_defaults_to_shared_clock():
    config = ExecutionConfig()
    config.validate()
    assert _plan(config) == "shared-clock"


@pytest.mark.parametrize("workers", [0, 2, 16])
def test_non_default_worker_counts_select_the_sharded_path(workers):
    assert _plan(ExecutionConfig(shard_workers=workers)) == "sharded"


def test_conservative_selects_the_sharded_path_even_at_one_worker():
    execution = ExecutionConfig(shard_workers=1, conservative=True)
    assert _plan(execution, cross_channel_rate=0.1) == "sharded-conservative"


@pytest.mark.parametrize("bad", [-1, -7, 1.5, "four", True])
def test_invalid_worker_counts_are_rejected(bad):
    with pytest.raises(ConfigurationError):
        ExecutionConfig(shard_workers=bad).validate()


def test_network_config_validates_execution():
    with pytest.raises(ConfigurationError):
        NetworkConfig(channels=2, cross_channel_rate=0.0, execution=ExecutionConfig(-2)).validate()


def test_conservative_requires_multiple_channels():
    config = NetworkConfig(channels=1, execution=ExecutionConfig(conservative=True))
    with pytest.raises(ConfigurationError):
        config.validate()


def test_describe_names_the_execution_mode():
    config = NetworkConfig(channels=4, execution=ExecutionConfig(shard_workers=0))
    assert "exec=" in config.describe()
    assert "exec=" not in NetworkConfig(channels=4).describe()


# ------------------------------------------------------------- worker budget
def test_single_shard_always_runs_in_process():
    assert resolve_worker_count(0, 1) == 1
    assert resolve_worker_count(8, 1) == 1


def test_auto_workers_follow_the_env_budget(monkeypatch):
    monkeypatch.setenv(PROCESS_BUDGET_ENV, "3")
    assert process_budget() == 3
    assert resolve_worker_count(0, 8) == 3
    assert resolve_worker_count(0, 2) == 2  # never more workers than shards


def test_explicit_workers_are_capped_by_the_env_budget(monkeypatch):
    monkeypatch.setenv(PROCESS_BUDGET_ENV, "2")
    assert resolve_worker_count(6, 8) == 2


def test_explicit_workers_without_env_budget_are_honored(monkeypatch):
    monkeypatch.delenv(PROCESS_BUDGET_ENV, raising=False)
    assert resolve_worker_count(6, 8) == 6


def test_invalid_env_budget_is_ignored(monkeypatch):
    monkeypatch.setenv(PROCESS_BUDGET_ENV, "zero")
    assert process_budget() >= 1
    monkeypatch.setenv(PROCESS_BUDGET_ENV, "0")
    assert process_budget() >= 1


def test_worker_count_never_drops_below_one(monkeypatch):
    monkeypatch.setenv(PROCESS_BUDGET_ENV, "1")
    assert resolve_worker_count(0, 8) == 1
    assert resolve_worker_count(4, 8) == 1


# ------------------------------------------------------------- cell identity
def _experiment(execution: ExecutionConfig) -> ExperimentConfig:
    return ExperimentConfig(
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            channels=4,
            cross_channel_rate=0.0,
            execution=execution,
        ),
        arrival_rate=60.0,
        duration=2.0,
        seed=11,
    )


def test_execution_strategy_is_excluded_from_the_cell_hash():
    # Sharded execution is bit-identical to the shared clock, so where a run
    # executes must not change its identity (seeds, cache keys).
    baseline = _experiment(ExecutionConfig()).cell_hash()
    assert _experiment(ExecutionConfig(shard_workers=0)).cell_hash() == baseline
    assert _experiment(ExecutionConfig(shard_workers=8)).cell_hash() == baseline


def test_conservative_execution_has_its_own_cell_identity():
    # Epoch-synchronized execution is a distinct simulation semantics and
    # must never share cached results with the shared-clock cell.
    baseline = _experiment(ExecutionConfig()).cell_hash()
    conservative = _experiment(ExecutionConfig(conservative=True)).cell_hash()
    assert conservative != baseline
