"""Tests for the channel topology, placement policies and sharding."""

from __future__ import annotations

import random

import pytest

from repro.channels.topology import HOT_SHARE, ChannelTopology, ShardedKeyDistribution
from repro.errors import ConfigurationError
from repro.workload.distributions import ZipfianDistribution

POPULATION = 1000


@pytest.mark.parametrize("placement", ["hash", "range", "hot"])
@pytest.mark.parametrize("channels", [1, 2, 4, 7])
def test_every_index_maps_to_exactly_one_channel(placement, channels):
    topology = ChannelTopology(channels=channels, placement=placement)
    for index in range(POPULATION):
        channel = topology.channel_of_index(index, POPULATION)
        assert 0 <= channel < channels


@pytest.mark.parametrize("placement", ["hash", "range", "hot"])
def test_shards_partition_the_population(placement):
    topology = ChannelTopology(channels=4, placement=placement)
    shards = [topology.shard_indices(channel, POPULATION) for channel in range(4)]
    combined = sorted(index for shard in shards for index in shard)
    assert combined == list(range(POPULATION))


def test_hash_placement_spreads_adjacent_ranks():
    topology = ChannelTopology(channels=4, placement="hash")
    sizes = [len(topology.shard_indices(channel, POPULATION)) for channel in range(4)]
    # Balanced to within a few percent, and the hottest (lowest) ranks are not
    # all on one channel.
    assert max(sizes) - min(sizes) < POPULATION * 0.1
    hot_channels = {topology.channel_of_index(index, POPULATION) for index in range(8)}
    assert len(hot_channels) > 1


def test_range_placement_is_contiguous():
    topology = ChannelTopology(channels=4, placement="range")
    for channel in range(4):
        shard = topology.shard_indices(channel, POPULATION)
        assert shard == list(range(min(shard), max(shard) + 1))
    assert topology.channel_of_index(0, POPULATION) == 0
    assert topology.channel_of_index(POPULATION - 1, POPULATION) == 3


def test_hot_placement_gives_channel_zero_half_the_index_space():
    assert HOT_SHARE == 0.5
    topology = ChannelTopology(channels=4, placement="hot")
    shard0 = topology.shard_indices(0, POPULATION)
    assert shard0 == list(range(500))
    for channel in range(1, 4):
        size = len(topology.shard_indices(channel, POPULATION))
        assert size == pytest.approx(500 / 3, abs=1)


@pytest.mark.parametrize("placement", ["hash", "range", "hot"])
@pytest.mark.parametrize("channels", [1, 3, 5])
def test_arrival_shares_sum_to_one(placement, channels):
    topology = ChannelTopology(channels=channels, placement=placement)
    shares = topology.arrival_shares()
    assert len(shares) == channels
    assert sum(shares) == pytest.approx(1.0)
    assert all(share > 0 for share in shares)


def test_hot_arrival_shares_favor_channel_zero():
    topology = ChannelTopology(channels=4, placement="hot")
    shares = topology.arrival_shares()
    assert shares[0] == HOT_SHARE
    assert all(share == pytest.approx((1.0 - HOT_SHARE) / 3) for share in shares[1:])


def test_topology_rejects_bad_parameters():
    with pytest.raises(ConfigurationError):
        ChannelTopology(channels=0)
    with pytest.raises(ConfigurationError):
        ChannelTopology(channels=2, placement="round-robin")
    topology = ChannelTopology(channels=2)
    with pytest.raises(ConfigurationError):
        topology.channel_of_index(5, 3)


# ------------------------------------------------------------------- sharding
def test_sharded_distribution_stays_inside_the_shard():
    topology = ChannelTopology(channels=4, placement="hash")
    rng = random.Random(99)
    for channel in range(4):
        sharded = ShardedKeyDistribution(topology, channel)
        for _ in range(200):
            index = sharded.sample(rng, POPULATION)
            assert topology.channel_of_index(index, POPULATION) == channel


def test_sharded_distribution_renormalizes_zipf_over_the_shard():
    topology = ChannelTopology(channels=2, placement="range")
    sharded = ShardedKeyDistribution(topology, 1, base=ZipfianDistribution(1.0))
    rng = random.Random(4)
    samples = [sharded.sample(rng, POPULATION) for _ in range(300)]
    # Channel 1 owns the upper half of the index space under range placement.
    assert all(index >= POPULATION // 2 for index in samples)
    # The shard's own hot end (its lowest ranks) dominates.
    lower = sum(1 for index in samples if index < 3 * POPULATION // 4)
    assert lower > len(samples) // 2


def test_sharded_distribution_falls_back_when_the_shard_is_empty():
    # Population 2 over 8 range-placed channels: most shards own nothing.
    topology = ChannelTopology(channels=8, placement="range")
    sharded = ShardedKeyDistribution(topology, 5, max_tries=16)
    rng = random.Random(7)
    index = sharded.sample(rng, 2)
    assert index in (0, 1)
