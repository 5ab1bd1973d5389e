"""The sharded draw against the rejection loop it replaced, draw for draw.

A channel's clients draw their primary keys from the channel's shard by
rejection: sample the base distribution until the index belongs to the shard.
The loop used to pay a full ``sample`` (population check, skew check, CDF
probe, ``min``) and a full :meth:`ChannelTopology.channel_of_index` per try;
it now runs a bound draw (:meth:`KeyDistribution.sampler`) against an
ownership table built once per population.  The reference implementations
below are the old bodies, kept verbatim: values *and* ``rng.getstate()`` must
match them, so a run consumes its workload streams exactly as before.
"""

from __future__ import annotations

import bisect
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.topology import ChannelTopology, ShardedKeyDistribution
from repro.errors import WorkloadError
from repro.workload.distributions import UniformDistribution, ZipfianDistribution

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
    cdf = distribution._cdf(population)
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
    sharded = ShardedKeyDistribution(
        ChannelTopology(channels=8), 3, base=ZipfianDistribution(1.0)
    )
    rng = random.Random(5)
    first = sharded.sample(rng, 100)
    assert calls == list(range(100))
    # One table serves every client (every rng) of the channel from then on.
    samples = [sharded.sample(random.Random(seed), 100) for seed in range(50)]
    assert calls == list(range(100))
    assert all(placement(sharded.topology, index, 100) == 3 for index in [first, *samples])
    sharded.sample(rng, 60)
    assert calls == list(range(100)) + list(range(60))


@pytest.mark.parametrize("population", [0, -3])
def test_non_positive_population_is_still_a_workload_error(population):
    sharded = ShardedKeyDistribution(ChannelTopology(channels=2), 1)
    with pytest.raises(WorkloadError):
        sharded.sample(random.Random(1), population)
    with pytest.raises(WorkloadError):
        ZipfianDistribution(1.0).sampler(random.Random(1), population)
    with pytest.raises(WorkloadError):
        ZipfianDistribution(0.0).sample_batch(random.Random(1), population, 2)
