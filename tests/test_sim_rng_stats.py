"""Unit tests for the random streams and the statistics accumulators."""

from __future__ import annotations

import math
import statistics

import pytest

from repro.sim.rng import RandomStreams
from repro.sim.stats import (
    DEFAULT_QUANTILES,
    OnlineStats,
    P2Quantile,
    QuantileSketch,
    percentile,
)


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


# ------------------------------------------------------------------ OnlineStats
def test_online_stats_mean_and_variance():
    samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    stats = OnlineStats()
    stats.extend(samples)
    assert stats.count == len(samples)
    assert stats.mean == pytest.approx(statistics.fmean(samples))
    assert stats.variance == pytest.approx(statistics.pvariance(samples))
    assert stats.stdev == pytest.approx(statistics.pstdev(samples))
    assert stats.minimum == 2.0
    assert stats.maximum == 9.0


def test_online_stats_empty_and_single_sample():
    stats = OnlineStats()
    assert stats.variance == 0.0
    stats.add(3.0)
    assert stats.mean == 3.0
    assert stats.variance == 0.0


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


# ------------------------------------------------------------------- P2Quantile
def test_p2_quantile_rejects_fractions_outside_unit_interval():
    for fraction in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            P2Quantile(fraction)


def test_p2_quantile_is_nan_before_any_sample():
    assert math.isnan(P2Quantile(0.5).value)


def test_p2_quantile_is_exact_for_up_to_five_samples():
    samples = [9.0, 1.0, 5.0, 3.0, 7.0]
    for n in range(1, 6):
        estimator = P2Quantile(0.5)
        for value in samples[:n]:
            estimator.add(value)
        assert estimator.value == percentile(samples[:n], 0.5)


@pytest.mark.parametrize("fraction", [0.5, 0.95, 0.99])
@pytest.mark.parametrize("seed", [1, 7, 99])
def test_p2_quantile_tracks_exact_percentile_on_large_streams(fraction, seed):
    import random

    rng = random.Random(seed)
    samples = [rng.expovariate(1.0) for _ in range(5000)]
    estimator = P2Quantile(fraction)
    for value in samples:
        estimator.add(value)
    exact = percentile(samples, fraction)
    # P² is an approximation; for 5k exponential samples it lands within a
    # few percent of the exact order statistic at every tracked fraction.
    assert abs(estimator.value - exact) <= 0.05 * max(exact, 1.0)


def test_p2_quantile_is_deterministic():
    import random

    samples = [random.Random(3).gauss(0.0, 1.0) for _ in range(1000)]
    first = P2Quantile(0.95)
    second = P2Quantile(0.95)
    for value in samples:
        first.add(value)
        second.add(value)
    assert first.value == second.value


def test_p2_quantile_estimates_are_ordered_across_fractions():
    import random

    rng = random.Random(11)
    p50, p95, p99 = P2Quantile(0.5), P2Quantile(0.95), P2Quantile(0.99)
    for _ in range(2000):
        value = rng.lognormvariate(0.0, 1.0)
        p50.add(value)
        p95.add(value)
        p99.add(value)
    assert p50.value <= p95.value <= p99.value


def test_p2_quantile_handles_constant_streams():
    estimator = P2Quantile(0.9)
    for _ in range(100):
        estimator.add(4.2)
    assert estimator.value == 4.2


# ---------------------------------------------------------------- QuantileSketch
def test_quantile_sketch_default_fractions_and_empty_dict():
    sketch = QuantileSketch()
    assert sketch.fractions == DEFAULT_QUANTILES
    assert sketch.as_dict() == {}
    assert sketch.count == 0


def test_quantile_sketch_requires_at_least_one_fraction():
    with pytest.raises(ValueError):
        QuantileSketch(())


def test_quantile_sketch_reports_p_keys():
    sketch = QuantileSketch()
    sketch.extend(float(n) for n in range(1, 101))
    summary = sketch.as_dict()
    assert sorted(summary) == ["p50", "p95", "p99"]
    assert summary["p50"] == sketch.quantile(0.5)
    assert 45.0 <= summary["p50"] <= 55.0
    assert summary["p95"] >= summary["p50"]


def test_quantile_sketch_unknown_fraction_raises():
    sketch = QuantileSketch((0.5,))
    sketch.add(1.0)
    with pytest.raises(KeyError):
        sketch.quantile(0.95)
