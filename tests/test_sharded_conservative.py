"""Conservative (epoch-synchronized) parallel execution: its own contract.

Coupled topologies (``cross_channel_rate > 0``) cannot shard under the
bit-identity contract — cross-channel messages couple the clocks.  The
conservative mode runs them anyway: every channel gets its own simulator and
the clocks advance in barrier-synchronized epochs of width
``timing.cross_channel_prepare``, with cross-channel messages delivered on
the epoch grid.  That is a *different simulation semantics* — reproducible
run to run, pinned by its own golden record, and never sharing a cell
identity (hash, cache entries, seeds) with the shared clock.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

from repro.channels.network import MultiChannelNetwork
from repro.core.fingerprint import record_fingerprint
from repro.errors import ConfigurationError
from repro.lifecycle.pipeline import build_network
from repro.lifecycle.retry import RetryConfig
from repro.sim.shard import ExecutionConfig
from repro.workload.distributions import make_distribution

GOLDEN_DIR = Path(__file__).parent / "golden"

sys.path.insert(0, str(GOLDEN_DIR))

from generate_conservative_golden import (  # noqa: E402
    VARIANTS,
    fingerprint_hash,
    golden_cell,
    golden_config,
)

GOLDEN = json.loads((GOLDEN_DIR / "conservative_golden.json").read_text())


def run_conservative(config):
    """Build and run one conservative cell; returns ``(network, record)``."""
    network = build_network(
        config=config.network,
        chaincode_factory=config.build_chaincode,
        variant_factory=config.variant,
        seed=config.seed,
    )
    record = network.run(
        mix=config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=make_distribution(config.zipf_skew),
        workload_name=config.workload.name,
    )
    return network, record


# ------------------------------------------------------------- golden record
def test_golden_record_covers_the_pinned_variants():
    assert sorted(GOLDEN) == sorted(VARIANTS)


@pytest.mark.parametrize("variant", VARIANTS)
def test_conservative_reproduces_golden_cells_bit_for_bit(variant):
    expected = GOLDEN[variant]
    actual = golden_cell(variant)
    assert sorted(actual) == sorted(expected)
    for name in sorted(expected):
        assert actual[name] == expected[name], (
            f"{variant}: {name} diverged from the conservative golden record"
        )


def test_conservative_runs_are_deterministic():
    config = golden_config("fabric-1.4")
    _, first = run_conservative(config)
    _, second = run_conservative(config)
    assert record_fingerprint(first) == record_fingerprint(second)
    assert fingerprint_hash(first) == fingerprint_hash(second)


# ---------------------------------------------------------------- semantics
def test_conservative_labels_its_execution():
    network, record = run_conservative(golden_config("fabric-1.4"))
    assert isinstance(network, MultiChannelNetwork)
    assert network.execution_mode == "sharded-conservative"
    assert record.execution == "sharded-conservative"
    assert record.shard_count == network.config.channels


def test_conservative_coordinator_commits_cross_channel_transactions():
    network, record = run_conservative(golden_config("fabric-1.4"))
    assert network.coordinator is not None
    assert network.coordinator.committed > 0
    assert network.coordinator.aborted >= 0
    submitted = sum(channel.cross_channel_submitted for channel in record.channel_records)
    assert submitted >= network.coordinator.committed


def test_conservative_ends_every_shard_on_the_epoch_grid():
    config = golden_config("fabric-1.4")
    width = config.network.timing.cross_channel_prepare
    _, record = run_conservative(config)
    epochs = record.simulated_end / width
    assert epochs == pytest.approx(round(epochs), abs=1e-6)


def test_conservative_transactions_match_the_shared_clock_when_uncoupled():
    # With no cross-channel traffic the barriers are pure pass-throughs for
    # the *event stream* — transactions and ledgers match the shared clock
    # exactly.  Only the horizon differs (each shard's clock ends on the
    # epoch grid), which is why conservative mode keeps its own cell hash.
    config = golden_config("fabric-1.4")
    config.network.cross_channel_rate = 0.0
    _, conservative = run_conservative(config)
    shared = golden_config("fabric-1.4")
    shared.network.cross_channel_rate = 0.0
    shared.network.execution = ExecutionConfig()
    _, reference = run_conservative(shared)
    left, right = record_fingerprint(conservative), record_fingerprint(reference)
    assert left["transactions"] == right["transactions"]
    assert left["lifecycle_counts"] == right["lifecycle_counts"]
    left_ledgers = [channel["record"]["ledger"] for channel in left["channels"]]
    right_ledgers = [channel["record"]["ledger"] for channel in right["channels"]]
    assert left_ledgers == right_ledgers
    assert conservative.simulated_end >= reference.simulated_end


def test_conservative_requires_a_positive_lookahead():
    config = golden_config("fabric-1.4")
    config.network.timing = dataclasses.replace(
        config.network.timing, cross_channel_prepare=0.0
    )
    with pytest.raises(ConfigurationError):
        run_conservative(config)


def test_conservative_cell_hash_is_pinned():
    # The golden cell hashes prove conservative cells can never collide with
    # shared-clock cache entries: flipping the flag moves the hash.
    config = golden_config("fabric-1.4")
    assert config.cell_hash() == GOLDEN["fabric-1.4"]["cell_hash"]
    plain = golden_config("fabric-1.4")
    plain.network.execution = ExecutionConfig()
    assert plain.cell_hash() != config.cell_hash()


# ------------------------------------------------------------ global rate cap
@pytest.mark.parametrize(
    "execution", [ExecutionConfig(), ExecutionConfig(conservative=True)], ids=["shared", "epochs"]
)
def test_retry_rate_cap_is_one_bucket_across_all_channels(execution):
    # One deployment-wide token bucket: rate_cap tokens per simulated second
    # plus the initial burst bound the resubmissions of the *whole* run.  A
    # bucket per epoch cell would admit up to four times as many.
    rate_cap = 5.0
    config = golden_config("fabric-1.4")
    config.arrival_rate = 400.0
    config.network.execution = execution
    config.network.retry = RetryConfig(policy="immediate", rate_cap=rate_cap)
    _, record = run_conservative(config)
    assert record.retry_rate_denied > 0
    assert record.resubmissions <= rate_cap * record.simulated_end + max(1, rate_cap)
