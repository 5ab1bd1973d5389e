"""Property tests for the batched RNG fast paths (hot-path contract).

Every ``*_batch`` helper on the hot path promises to be **byte-identical** to
the equivalent sequence of per-call draws: same values, same number of
underlying ``random.Random`` draws, same final generator state.  That promise
is what lets the hot path batch draws without perturbing the golden lifecycle
records, so each property below checks both the values *and*
``rng.getstate()`` after the batch.

The same promise covers the inlined replays of ``sample`` (the everyone-signs
selector of :meth:`NOutOf.org_selector`, below) and of ``choice`` (the client's
endorser pick, ``tests/test_endorsement_round.py``): they mirror private
CPython code, so they are proved against the stdlib of whichever Python runs
the suite.
"""

from __future__ import annotations

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.channels.topology import ChannelTopology, ShardedKeyDistribution
from repro.network.endorsement import NOutOf, SignedBy, policy_p1, policy_p3
from repro.sim.rng import RandomStreams, exponential_draws
from repro.workload.distributions import UniformDistribution, ZipfianDistribution

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
COUNTS = st.integers(min_value=0, max_value=200)
POPULATIONS = st.integers(min_value=1, max_value=500)
SIZES = st.integers(min_value=1, max_value=64)
RATES = st.floats(min_value=1e-3, max_value=1e4, allow_nan=False, allow_infinity=False)


def _paired_rngs(seed: int) -> tuple[random.Random, random.Random]:
    return random.Random(seed), random.Random(seed)


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, rate=RATES, count=COUNTS)
def test_exponential_draws_matches_expovariate(seed, rate, count):
    batched_rng, percall_rng = _paired_rngs(seed)
    batched = exponential_draws(batched_rng, rate, count)
    percall = [percall_rng.expovariate(rate) for _ in range(count)]
    assert batched == percall
    assert batched_rng.getstate() == percall_rng.getstate()


@settings(max_examples=25, deadline=None)
@given(seed=SEEDS, rate=RATES, count=COUNTS)
def test_streams_exponential_batch_matches_stream_expovariate(seed, rate, count):
    batched_streams = RandomStreams(seed=seed)
    percall_streams = RandomStreams(seed=seed)
    batched = batched_streams.exponential_batch("client-0", rate, count)
    percall_rng = percall_streams.stream("client-0")
    percall = [percall_rng.expovariate(rate) for _ in range(count)]
    assert batched == percall
    assert batched_streams.stream("client-0").getstate() == percall_rng.getstate()


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, population=POPULATIONS, count=COUNTS)
def test_uniform_sample_batch_matches_per_call(seed, population, count):
    distribution = UniformDistribution()
    batched_rng, percall_rng = _paired_rngs(seed)
    batched = distribution.sample_batch(batched_rng, population, count)
    percall = [distribution.sample(percall_rng, population) for _ in range(count)]
    assert batched == percall
    assert batched_rng.getstate() == percall_rng.getstate()


@settings(max_examples=50, deadline=None)
@given(
    seed=SEEDS,
    population=POPULATIONS,
    count=COUNTS,
    skew=st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
def test_zipfian_sample_batch_matches_per_call(seed, population, count, skew):
    # One distribution instance for both paths: the CDF cache is shared and
    # draw-neutral, and sharing it mirrors how the generator reuses it.
    distribution = ZipfianDistribution(skew=skew)
    batched_rng, percall_rng = _paired_rngs(seed)
    batched = distribution.sample_batch(batched_rng, population, count)
    percall = [distribution.sample(percall_rng, population) for _ in range(count)]
    assert batched == percall
    assert batched_rng.getstate() == percall_rng.getstate()


@settings(max_examples=50, deadline=None)
@given(
    seed=SEEDS,
    population=POPULATIONS,
    count=st.integers(min_value=0, max_value=60),
    channels=st.integers(min_value=1, max_value=5),
    placement=st.sampled_from(["hash", "range", "hot"]),
    channel_seed=st.integers(min_value=0, max_value=2**16),
    skew=st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
def test_sharded_sample_batch_matches_per_call(
    seed, population, count, channels, placement, channel_seed, skew
):
    topology = ChannelTopology(channels=channels, placement=placement)
    channel = channel_seed % channels
    base = ZipfianDistribution(skew=skew)
    batched = ShardedKeyDistribution(topology, channel, base=base)
    percall = ShardedKeyDistribution(topology, channel, base=base)
    batched_rng, percall_rng = _paired_rngs(seed)
    batched_values = batched.sample_batch(batched_rng, population, count)
    percall_values = [percall.sample(percall_rng, population) for _ in range(count)]
    assert batched_values == percall_values
    assert batched_rng.getstate() == percall_rng.getstate()


# ------------------------------------------------------------ sample replay
@settings(max_examples=200, deadline=None)
@given(seed=SEEDS, size=SIZES, rounds=st.integers(min_value=1, max_value=5))
def test_everyone_signs_selector_matches_the_general_path(seed, size, rounds):
    policy = NOutOf(n=size, children=tuple(SignedBy(org) for org in range(size)))
    replayed_rng, stdlib_rng = _paired_rngs(seed)
    select = policy.org_selector(replayed_rng)
    replayed_rng.sample = None  # the replay never calls it
    for _ in range(rounds):
        assert list(select()) == sorted(policy.select_orgs(stdlib_rng))
    assert replayed_rng.getstate() == stdlib_rng.getstate()


@settings(max_examples=50, deadline=None)
@given(seed=SEEDS, size=st.integers(min_value=3, max_value=16))
def test_nested_and_quorum_selectors_match_select_orgs(seed, size):
    nested = NOutOf(n=2, children=(SignedBy(0), NOutOf(n=1, children=(SignedBy(1),))))
    for policy in (policy_p1(size), policy_p3(size), nested):
        bound_rng, stdlib_rng = _paired_rngs(seed)
        select = policy.org_selector(bound_rng)
        assert list(select()) == sorted(policy.select_orgs(stdlib_rng))
        assert bound_rng.getstate() == stdlib_rng.getstate()


class CountingRandom(random.Random):
    """A subclass: the replay must leave it to the stdlib's own calls."""

    calls = 0

    def sample(self, population, k):
        type(self).calls += 1
        return super().sample(population, k)


def test_replay_is_for_the_stdlib_generator_only():
    policy = NOutOf(n=3, children=tuple(SignedBy(org) for org in range(3)))
    select = policy.org_selector(CountingRandom(1))
    assert list(select()) == [0, 1, 2] and CountingRandom.calls == 1
