"""Unit tests for the shard rule (``plan_groups``) and process budgeting (``repro.sim.shard``)."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.bench.harness import ExperimentConfig
from repro.channels.network import plan_groups
from repro.channels.topology import ChannelRouter, ChannelTopology
from repro.errors import ConfigurationError
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.sim.shard import (
    PROCESS_BUDGET_ENV,
    ExecutionConfig,
    process_budget,
    resolve_worker_count,
)
from repro.workload.spec import CrossChannelMix
from repro.workload.workloads import uniform_workload


# ------------------------------------------------------------------ the rule
#: What an ``observed`` run exports: nothing, a trace, or metrics.
OBSERVERS = {
    "off": ObservabilityConfig(),
    "trace": ObservabilityConfig(trace=True),
    "metrics": ObservabilityConfig(metrics=True),
}


def _groups(
    channels: int, workers: int, rate: float = 0.0, capped: bool = False, observed: str = "off"
):
    retry = RetryConfig(policy="immediate", rate_cap=5.0) if capped else RetryConfig()
    config = NetworkConfig(
        channels=channels,
        cross_channel_rate=rate,
        retry=retry,
        observability=OBSERVERS[observed],
        execution=ExecutionConfig(shard_workers=workers),
    )
    return plan_groups(config)


@pytest.mark.parametrize("observed", OBSERVERS)
@pytest.mark.parametrize("workers", [0, 1, 2])
@pytest.mark.parametrize("capped", [False, True])
@pytest.mark.parametrize("rate", [0.0, 0.1])
@pytest.mark.parametrize("channels", range(1, 9))
def test_plan_groups_shards_exactly_the_uncoupled_uncapped_deployments(
    channels, rate, capped, workers, observed
):
    # Coupling alone picks the plan: the worker count never does.
    mode, groups = _groups(channels, workers, rate, capped, observed)
    if channels > 1 and rate == 0.0 and not capped and observed == "off":
        assert mode == "sharded"
        assert groups == tuple((index,) for index in range(channels))
    else:
        assert mode == "shared-clock"
        assert groups == (tuple(range(channels)),)


@pytest.mark.parametrize("strategy", CrossChannelMix.STRATEGIES)
@pytest.mark.parametrize("channels", range(2, 9))
def test_every_partner_strategy_connects_every_channel(strategy, channels):
    # The premise of the rule: any cross traffic couples all channels, so a
    # positive rate can never split a deployment into more than one shard.
    router = ChannelRouter(ChannelTopology(channels=channels))
    rng = random.Random(channels)
    neighbours = {home: set() for home in range(channels)}
    for home in range(channels):
        for _ in range(64):
            partner = router.pick_partner(home, rng, strategy)
            neighbours[home].add(partner)
            neighbours[partner].add(home)
    reached, frontier = {0}, [0]
    while frontier:
        for partner in neighbours[frontier.pop()] - reached:
            reached.add(partner)
            frontier.append(partner)
    assert reached == set(range(channels))


# -------------------------------------------------------------- ExecutionConfig
def _plan(execution: ExecutionConfig, cross_channel_rate: float = 0.0) -> str:
    config = NetworkConfig(
        channels=4, cross_channel_rate=cross_channel_rate, execution=execution
    )
    return plan_groups(config)[0]


def test_execution_config_defaults_to_this_process_draining_every_shard():
    config = ExecutionConfig()
    config.validate()
    assert config.shard_workers == 1
    assert _plan(config) == "sharded"
    assert resolve_worker_count(config.shard_workers, 4) == 1


@pytest.mark.parametrize("workers", [0, 2, 16])
def test_non_default_worker_counts_select_the_sharded_path(workers):
    assert _plan(ExecutionConfig(shard_workers=workers)) == "sharded"


@pytest.mark.parametrize("workers", [0, 1, 2, 16])
def test_coupled_channels_share_one_clock_at_every_worker_count(workers):
    # Cross-channel traffic couples every channel into one group: there is
    # no plan that drains a coupled topology on more than one clock.
    assert _plan(ExecutionConfig(shard_workers=workers), cross_channel_rate=0.1) == "shared-clock"


def test_execution_config_has_one_field():
    assert [field.name for field in dataclasses.fields(ExecutionConfig)] == ["shard_workers"]
    assert ExecutionConfig(shard_workers=0).identity() is None


@pytest.mark.parametrize("bad", [-1, -7, 1.5, "four", True])
def test_invalid_worker_counts_are_rejected(bad):
    with pytest.raises(ConfigurationError):
        ExecutionConfig(shard_workers=bad).validate()


def test_network_config_validates_execution():
    with pytest.raises(ConfigurationError):
        NetworkConfig(channels=2, cross_channel_rate=0.0, execution=ExecutionConfig(-2)).validate()


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

