"""What a :class:`~repro.channels.group.ChannelGroup` builds from its spec.

The group is the one place that builds what couples channels: the key-space
topology, the resubmission governor and the cross-channel coordinator.  These
tests build groups straight from a :class:`GroupSpec` and read each piece.
"""

from __future__ import annotations

import pytest

from repro.channels.group import ChannelGroup, GroupSpec
from repro.channels.topology import ChannelTopology
from repro.lifecycle.retry import RetryConfig
from repro.network.config import PLACEMENT_POLICIES, NetworkConfig
from repro.sim.rng import RandomStreams
from repro.workload.workloads import uniform_workload

SEED = 11


def group(held=(0,), **network) -> ChannelGroup:
    """A group holding channel indices ``held`` of a deployment ``network`` configures."""
    network.setdefault("cluster", "C1")
    network.setdefault("database", "leveldb")
    workload = uniform_workload("EHR", patients=40)
    return ChannelGroup(
        GroupSpec(
            config=NetworkConfig(block_size=10, **network),
            chaincode=workload.chaincode,
            chaincode_kwargs=workload.chaincode_kwargs,
            variant="fabric-1.4",
            seed=SEED,
            channels=tuple(held),
        )
    )


# ---------------------------------------------------------------- coordinator
@pytest.mark.parametrize(
    "deployed, held, rate, coordinated",
    [
        (1, (0,), 0.0, False),
        (4, (0, 1, 2, 3), 0.0, False),
        (4, (2,), 0.5, False),
        (2, (0, 1), 0.2, True),
        (4, (0, 1, 2, 3), 0.5, True),
    ],
    ids=["one-channel", "uncoupled", "one-of-four", "two-coupled", "four-coupled"],
)
def test_a_group_builds_a_coordinator_only_over_two_channels_with_cross_traffic(
    deployed, held, rate, coordinated
):
    built = group(held, channels=deployed, cross_channel_rate=rate)
    assert [channel.index for channel in built.channels] == list(held)
    if coordinated:
        assert built.coordinator.channels == built.channels
    else:
        assert built.coordinator is None


def test_the_coordinator_draws_the_seed_coordinator_stream():
    # Streams are a pure function of (seed, name): the coordinator built by
    # the group draws what a fresh stream family of the same seed draws.
    built = group((0, 1, 2), channels=3, cross_channel_rate=0.3)
    expected = RandomStreams(SEED).stream("coordinator")
    assert [built.coordinator.rng.random() for _ in range(8)] == [
        expected.random() for _ in range(8)
    ]


# ------------------------------------------------------------------- governor
RETRIES = {
    "off": RetryConfig(),
    "uncapped": RetryConfig(policy="immediate"),
    "capped": RetryConfig(policy="immediate", rate_cap=5.0),
}


@pytest.mark.parametrize("retry", RETRIES)
def test_a_group_shares_one_governor_among_its_channels_when_retry_is_on(retry):
    built = group((0, 1, 2, 3), channels=4, retry=RETRIES[retry])
    controllers = [channel.retry_controller for channel in built.channels]
    if retry == "off":
        assert controllers == [None] * 4
        return
    shared = controllers[0].governor
    assert all(controller.governor is shared for controller in controllers)
    assert shared.rate_cap == RETRIES[retry].rate_cap
    # Two groups never share a bucket: each builds its own.
    other = group((0, 1, 2, 3), channels=4, retry=RETRIES[retry])
    assert other.channels[0].retry_controller.governor is not shared


# ------------------------------------------------------------------- topology
@pytest.mark.parametrize("placement", PLACEMENT_POLICIES)
def test_a_group_builds_the_topology_its_config_names(placement):
    built = group((0, 1, 2, 3), channels=4, placement=placement)
    topology = ChannelTopology(4, placement)
    assert built.topology == topology
    assert [channel.arrival_share for channel in built.channels] == list(
        topology.arrival_shares()
    )
