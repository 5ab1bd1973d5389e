"""Unit tests for the shard rule (``plan_groups``) and worker counts (``repro.sim.shard``)."""

from __future__ import annotations

import dataclasses
import random

import pytest

from repro.bench.harness import ExperimentConfig
from repro.channels.channel import ChannelGateway
from repro.channels.network import plan_groups
from repro.errors import ConfigurationError
from repro.ledger.block import Transaction
from repro.lifecycle.pipeline import build_network
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.sim import shard
from repro.sim.shard import ExecutionConfig, process_pool, resolve_worker_count
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


@pytest.mark.parametrize("channels", range(2, 9))
def test_a_gateway_draws_every_other_channel_of_its_group_and_never_its_own(channels):
    # The premise of the rule: any cross traffic couples all channels, so a
    # positive rate can never split a deployment into more than one shard.
    config = _experiment(ExecutionConfig())
    config = config.with_overrides(
        network=config.network.copy(channels=channels, cross_channel_rate=0.5)
    )
    deployment = build_network(
        config.network,
        config.workload.chaincode,
        config.variant,
        chaincode_kwargs=config.workload.chaincode_kwargs,
    )
    coordinator = deployment.group.coordinator
    assert coordinator.channels == deployment.channels
    for channel in deployment.channels:
        # Rate 1: every submission crosses, so every one draws a partner.
        gateway = ChannelGateway(channel, 1.0, random.Random(channel.index), coordinator)
        drawn = set()
        for attempt in range(64):
            tx = Transaction(
                tx_id=f"t{channel.index}-{attempt}", client_name="c",
                chaincode_name="EHR", function="f",
            )
            gateway.submit(tx)
            drawn.add(tx.partner_channel)
        assert gateway.cross_channel_submitted == 64
        assert drawn == set(range(channels)) - {channel.index}


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


# -------------------------------------------------------------- worker count
@pytest.mark.parametrize(
    "requested, tasks, expected",
    [
        (0, 1, 1),  # one shard always runs in this process
        (8, 1, 1),
        (0, 8, 3),  # 0 = every available core ...
        (0, 2, 2),  # ... never more workers than shards
        (6, 8, 6),  # an explicit count is honored up to the shards
        (16, 4, 4),
        (1, 8, 1),
        (0, 0, 1),  # never below one
    ],
)
def test_worker_count_is_the_request_or_the_cores_capped_by_the_shards(
    requested, tasks, expected, monkeypatch
):
    monkeypatch.setattr(shard, "available_cores", lambda: 3)
    assert resolve_worker_count(requested, tasks) == expected


def test_a_pool_worker_never_starts_a_pool():
    with process_pool(2) as pool:
        counts = list(pool.map(resolve_worker_count, [0, 4, 16], [8, 8, 8]))
    assert counts == [1, 1, 1]
    assert resolve_worker_count(4, 8) == 4  # this process is no pool worker


def test_a_pool_worker_counts_within_its_share_of_the_cores(monkeypatch):
    monkeypatch.setattr(shard, "available_cores", lambda: 8)
    with process_pool(2, share=3) as pool:
        counts = list(pool.map(resolve_worker_count, [0, 2, 16, 0], [8, 8, 8, 1]))
    assert counts == [3, 2, 3, 1]


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

