"""The sharded draw against the rejection loop it replaced, draw for draw.

A channel's clients draw their primary keys from the channel's shard by
rejection: sample the base distribution until the index belongs to the shard.
The loop used to pay a full ``sample`` (population check, skew check, CDF
probe, ``min``) and a full :meth:`ChannelTopology.channel_of_index` per try;
it now runs a bound draw (:meth:`KeyDistribution.sampler`) against the
ownership table its topology builds once per population
(:meth:`ChannelTopology.owners`, shared by all channels), and on a one-channel
topology it *is* the bound draw.  The reference implementations below are the
old bodies, kept verbatim: values *and* ``rng.getstate()`` must match them, so
a run consumes its workload streams exactly as before.
"""

from __future__ import annotations

import bisect
import hashlib
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.topology import ChannelTopology, ShardedKeyDistribution
from repro.errors import WorkloadError
from repro.workload.distributions import (
    UniformDistribution,
    ZipfianDistribution,
    cumulative_weights,
    make_distribution,
)

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
POPULATIONS = st.integers(min_value=1, max_value=300)
PLACEMENTS = st.sampled_from(["hash", "range", "hot"])
SKEWS = st.one_of(st.just(0.0), st.floats(min_value=0.0, max_value=2.5, allow_nan=False))


# ------------------------------------------------- the old bodies, verbatim
def reference_uniform_sample(rng: random.Random, population: int) -> int:
    if population <= 0:
        raise WorkloadError(f"population must be positive, got {population}")
    return rng.randrange(population)


def reference_zipfian_sample(
    distribution: ZipfianDistribution, rng: random.Random, population: int
) -> int:
    if population <= 0:
        raise WorkloadError(f"population must be positive, got {population}")
    if distribution.skew == 0.0:
        return rng.randrange(population)
    cdf = cumulative_weights(distribution.skew, population)
    point = rng.random() * cdf[-1]
    return min(bisect.bisect_left(cdf, point), population - 1)


def reference_base_sample(base, rng: random.Random, population: int) -> int:
    if isinstance(base, ZipfianDistribution):
        return reference_zipfian_sample(base, rng, population)
    return reference_uniform_sample(rng, population)


def reference_sharded_sample(
    sharded: ShardedKeyDistribution, rng: random.Random, population: int
) -> int:
    for _ in range(sharded.max_tries):
        index = reference_base_sample(sharded.base, rng, population)
        if sharded.topology.channel_of_index(index, population) == sharded.channel:
            return index
    return reference_base_sample(sharded.base, rng, population)


class HalvedRandom(random.Random):
    """A subclass with its own uniform source: the draw must go through it."""

    def random(self) -> float:
        return super().random() / 2.0


def make_base(skew):
    return UniformDistribution() if skew is None else ZipfianDistribution(skew)


# ---------------------------------------------------------------- properties
@settings(max_examples=150, deadline=None)
@given(
    seed=SEEDS,
    population=POPULATIONS,
    skew=st.one_of(st.none(), SKEWS),
    count=st.integers(min_value=0, max_value=40),
    subclass=st.booleans(),
)
def test_base_draw_matches_the_old_sample(seed, population, skew, count, subclass):
    base = make_base(skew)
    make_rng = HalvedRandom if subclass else random.Random
    drawn_rng, reference_rng, batched_rng = make_rng(seed), make_rng(seed), make_rng(seed)
    draw = base.sampler(drawn_rng, population)
    expected = [reference_base_sample(base, reference_rng, population) for _ in range(count)]
    assert [draw() for _ in range(count)] == expected
    assert drawn_rng.getstate() == reference_rng.getstate()
    assert base.sample_batch(batched_rng, population, count) == expected
    assert batched_rng.getstate() == reference_rng.getstate()


@settings(max_examples=200, deadline=None)
@given(
    seed=SEEDS,
    population=POPULATIONS,
    channels=st.integers(min_value=1, max_value=9),
    placement=PLACEMENTS,
    channel_seed=st.integers(min_value=0, max_value=2**16),
    skew=st.one_of(st.none(), SKEWS),
    max_tries=st.sampled_from([1, 3, 256]),
    count=st.integers(min_value=1, max_value=30),
    subclass=st.booleans(),
)
def test_sharded_draw_matches_the_old_rejection_loop(
    seed, population, channels, placement, channel_seed, skew, max_tries, count, subclass
):
    topology = ChannelTopology(channels=channels, placement=placement)
    sharded = ShardedKeyDistribution(
        topology, channel_seed % channels, base=make_base(skew), max_tries=max_tries
    )
    make_rng = HalvedRandom if subclass else random.Random
    sampled_rng, reference_rng = make_rng(seed), make_rng(seed)
    for _ in range(count):
        assert sharded.sample(sampled_rng, population) == reference_sharded_sample(
            sharded, reference_rng, population
        )
        assert sampled_rng.getstate() == reference_rng.getstate()


@pytest.mark.parametrize("placement", ["hash", "range", "hot"])
@pytest.mark.parametrize("skew", [None, 1.0])
def test_a_shard_that_owns_nothing_falls_back_after_max_tries_draws(placement, skew):
    # Population 1: index 0 has one owner, every other channel's shard is empty.
    topology = ChannelTopology(channels=5, placement=placement)
    owner = topology.channel_of_index(0, 1)
    channel = next(index for index in range(5) if index != owner)
    assert topology.shard_indices(channel, 1) == []
    sharded = ShardedKeyDistribution(topology, channel, base=make_base(skew), max_tries=7)
    sampled_rng, reference_rng = random.Random(3), random.Random(3)
    for _ in range(5):
        assert sharded.sample(sampled_rng, 1) == 0
        assert reference_sharded_sample(sharded, reference_rng, 1) == 0
    # Eight base draws per sample: seven rejected tries and the fallback.
    assert sampled_rng.getstate() == reference_rng.getstate()


def test_placement_is_asked_once_per_index_not_once_per_draw(monkeypatch):
    calls = []
    placement = ChannelTopology.channel_of_index

    def counted(self, index, population):
        calls.append(index)
        return placement(self, index, population)

    monkeypatch.setattr(ChannelTopology, "channel_of_index", counted)
    ChannelTopology.owners.cache_clear()
    sharded = ShardedKeyDistribution(
        ChannelTopology(channels=8), 3, base=ZipfianDistribution(1.0)
    )
    rng = random.Random(5)
    first = sharded.sample(rng, 100)
    assert calls == list(range(100))
    # One table serves every client (every rng) of the channel from then on ...
    samples = [sharded.sample(random.Random(seed), 100) for seed in range(50)]
    assert calls == list(range(100))
    assert all(placement(sharded.topology, index, 100) == 3 for index in [first, *samples])
    # ... and every other channel of an equal topology, in this cell or the next.
    for channel in range(8):
        sibling = ShardedKeyDistribution(ChannelTopology(channels=8), channel)
        index = sibling.sample(random.Random(channel), 100)
        assert placement(sibling.topology, index, 100) == channel
    assert calls == list(range(100))
    sharded.sample(rng, 60)
    assert calls == list(range(100)) + list(range(60))
    # One channel owns every index without asking, and adds no frame to the draw.
    sole = ShardedKeyDistribution(ChannelTopology(channels=1), 0, base=ZipfianDistribution(1.0))
    draw = sole.sampler(rng, 77)
    assert draw.__qualname__ == sole.base.sampler(rng, 77).__qualname__
    assert "ZipfianDistribution.sampler" in draw.__qualname__
    uniform = ShardedKeyDistribution(ChannelTopology(channels=1), 0).sampler(rng, 77)
    assert (uniform.func, uniform.args) == (rng.randrange, (77,))
    assert calls == list(range(100)) + list(range(60))


@settings(max_examples=100, deadline=None)
@given(
    population=POPULATIONS,
    channels=st.integers(min_value=1, max_value=9),
    placement=PLACEMENTS,
    hot_share=st.floats(min_value=0.01, max_value=0.99),
)
def test_owners_table_is_channel_of_index_index_by_index(
    population, channels, placement, hot_share
):
    topology = ChannelTopology(channels=channels, placement=placement, hot_share=hot_share)
    owners = topology.owners(population)
    assert isinstance(owners, bytes) and len(owners) == population
    assert list(owners) == [topology.channel_of_index(i, population) for i in range(population)]
    for channel in range(channels):
        assert topology.shard_indices(channel, population) == [
            index for index, owner in enumerate(owners) if owner == channel
        ]


def test_owners_of_more_channels_than_a_byte_holds():
    topology = ChannelTopology(channels=300)
    owners = topology.owners(2000)
    assert max(owners) > 255
    assert list(owners) == [topology.channel_of_index(index, 2000) for index in range(2000)]
    sharded = ShardedKeyDistribution(topology, 299)
    assert topology.channel_of_index(sharded.sample(random.Random(1), 2000), 2000) == 299


#: ``sha256(repr(...))[:16]`` of the grid below, drawn through the per-shard
#: tables of the commit before the topology owned one table for all channels.
DRAW_GRID = "4c97efbff7a60f7c"


def test_draws_are_what_they_were_on_a_pinned_grid():
    drawn = []
    for placement in ("hash", "range", "hot"):
        for channels in (1, 8):
            topology = ChannelTopology(channels=channels, placement=placement)
            for skew in (0.0, 1.0):
                for channel in range(channels):
                    sharded = ShardedKeyDistribution(
                        topology, channel, base=make_distribution(skew)
                    )
                    for population in (1, 40, 257):
                        for seed in (1, 2):
                            rng = random.Random(seed)
                            drawn.append(sharded.sample_batch(rng, population, 25))
                            drawn.append(rng.random())  # where the stream was left
    assert len(drawn) == 648
    assert hashlib.sha256(repr(drawn).encode("ascii")).hexdigest()[:16] == DRAW_GRID


@pytest.mark.parametrize("population", [0, -3])
def test_non_positive_population_is_still_a_workload_error(population):
    sharded = ShardedKeyDistribution(ChannelTopology(channels=2), 1)
    with pytest.raises(WorkloadError):
        sharded.sample(random.Random(1), population)
    with pytest.raises(WorkloadError):
        ZipfianDistribution(1.0).sampler(random.Random(1), population)
    with pytest.raises(WorkloadError):
        ZipfianDistribution(0.0).sample_batch(random.Random(1), population, 2)
