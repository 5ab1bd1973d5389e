"""Unit tests for the random streams and the sample statistics."""

from __future__ import annotations

import math
import random
from array import array

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.sim.rng import RandomStreams
from repro.sim.stats import DEFAULT_QUANTILES, percentile, quantiles


# ------------------------------------------------------------------ RandomStreams
def test_same_seed_and_name_give_same_sequence():
    first = RandomStreams(42).stream("arrivals")
    second = RandomStreams(42).stream("arrivals")
    assert [first.random() for _ in range(5)] == [second.random() for _ in range(5)]


def test_different_names_give_different_sequences():
    streams = RandomStreams(42)
    a = [streams.stream("a").random() for _ in range(5)]
    b = [streams.stream("b").random() for _ in range(5)]
    assert a != b


def test_different_seeds_give_different_sequences():
    a = RandomStreams(1).stream("x").random()
    b = RandomStreams(2).stream("x").random()
    assert a != b


def test_stream_is_cached():
    streams = RandomStreams(7)
    assert streams.stream("x") is streams.stream("x")


def test_spawn_derives_new_independent_factory():
    parent = RandomStreams(7)
    child_a = parent.spawn("rep-1")
    child_b = parent.spawn("rep-2")
    assert child_a.seed != child_b.seed
    assert RandomStreams(7).spawn("rep-1").seed == child_a.seed


# ------------------------------------------------------------------- percentile
def test_percentile_interpolates():
    values = [1.0, 2.0, 3.0, 4.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 1.0) == 4.0
    assert percentile(values, 0.5) == pytest.approx(2.5)


def test_percentile_of_empty_list_is_nan():
    assert math.isnan(percentile([], 0.5))


def test_percentile_single_value():
    assert percentile([7.0], 0.99) == 7.0


def test_percentile_rejects_bad_fraction():
    with pytest.raises(ValueError):
        percentile([1.0], 1.5)


# -------------------------------------------------------------------- quantiles
def test_quantiles_of_no_samples_is_empty():
    assert quantiles([]) == {}


def test_quantiles_of_one_sample_is_that_sample_for_every_key():
    assert quantiles([7.0]) == {"p50": 7.0, "p95": 7.0, "p99": 7.0}


def test_quantiles_are_keyed_by_percent():
    assert list(quantiles([1.0, 2.0])) == ["p50", "p95", "p99"]
    assert list(quantiles([1.0, 2.0], (0.25, 0.999, 1.0))) == ["p25", "p99.9", "p100"]


@pytest.mark.parametrize("seed", [1, 7, 99])
def test_quantiles_are_the_percentiles_of_their_fractions(seed):
    rng = random.Random(seed)
    samples = [rng.expovariate(1.0) for _ in range(1001)]
    summary = quantiles(samples)
    assert summary == {
        f"p{fraction * 100:g}": percentile(samples, fraction) for fraction in DEFAULT_QUANTILES
    }
    # A statistic of the bag of samples: their order does not matter.
    rng.shuffle(samples)
    assert quantiles(samples) == summary


@given(
    samples=st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=1, max_size=300),
    # Per-mille fractions: distinct ones never share a ``p`` key.
    fractions=st.lists(st.integers(0, 1000).map(lambda n: n / 1000), min_size=1, max_size=4),
    order=st.randoms(use_true_random=False),
)
def test_quantiles_are_a_function_of_the_bag_of_samples(samples, fractions, order):
    summary = quantiles(samples, fractions)
    for fraction in fractions:
        assert summary[f"p{fraction * 100:g}"] == percentile(samples, fraction)
    order.shuffle(samples)
    assert quantiles(samples, fractions) == summary


@pytest.mark.parametrize("fraction", [-0.1, 1.5, math.nan])
def test_quantiles_reject_bad_fractions(fraction):
    with pytest.raises(ValueError):
        quantiles([1.0], (0.5, fraction))
    # Checked before the samples are looked at: no samples is no excuse.
    with pytest.raises(ValueError):
        quantiles([], (fraction,))


def test_quantiles_at_zero_and_one_are_the_extremes():
    samples = [3.0, -2.0, 8.5, 0.0, 4.0]
    assert quantiles(samples, (0.0, 1.0)) == {"p0": -2.0, "p100": 8.5}


def test_quantiles_are_ordered_across_fractions():
    rng = random.Random(11)
    samples = [rng.lognormvariate(0.0, 1.0) for _ in range(2000)]
    summary = quantiles(samples, (0.01, 0.25, 0.5, 0.95, 0.99))
    assert list(summary.values()) == sorted(summary.values())
    assert min(samples) <= summary["p1"] and summary["p99"] <= max(samples)


def test_quantiles_of_a_constant_stream_are_that_value():
    # 101 samples: every default fraction lands on a sample, no interpolation.
    assert quantiles([4.2] * 101) == {"p50": 4.2, "p95": 4.2, "p99": 4.2}
    for value in quantiles([4.2] * 100).values():
        assert value == pytest.approx(4.2, rel=1e-15)


def test_quantiles_leave_their_samples_as_they_were():
    samples = [5.0, 1.0, 3.0, 2.0]
    tally = array("d", samples)
    quantiles(samples)
    quantiles(tally)
    assert samples == [5.0, 1.0, 3.0, 2.0]
    assert list(tally) == samples


def test_quantiles_of_an_array_are_those_of_its_list():
    rng = random.Random(5)
    samples = [rng.expovariate(2.0) for _ in range(257)]
    assert quantiles(array("d", samples)) == quantiles(samples)
