"""Unit tests for key distributions and workload specifications."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.errors import WorkloadError
from repro.workload.distributions import (
    UniformDistribution,
    ZipfianDistribution,
    cumulative_weights,
    make_distribution,
)
from repro.workload.spec import TransactionMix, WorkloadSpec


# --------------------------------------------------------------- distributions
def test_uniform_samples_stay_in_bounds(rng):
    distribution = UniformDistribution()
    samples = [distribution.sample(rng, 10) for _ in range(200)]
    assert min(samples) >= 0
    assert max(samples) < 10


def test_uniform_rejects_empty_population(rng):
    with pytest.raises(WorkloadError):
        UniformDistribution().sample(rng, 0)


def test_zipfian_rejects_negative_skew():
    with pytest.raises(WorkloadError):
        ZipfianDistribution(-1.0)


def test_zipfian_skew_zero_behaves_uniformly(rng):
    distribution = ZipfianDistribution(0.0)
    samples = [distribution.sample(rng, 5) for _ in range(500)]
    counts = Counter(samples)
    assert set(counts) == {0, 1, 2, 3, 4}


def test_zipfian_concentrates_on_low_ranks():
    rng_local = random.Random(7)
    distribution = ZipfianDistribution(1.5)
    samples = [distribution.sample(rng_local, 1000) for _ in range(2000)]
    counts = Counter(samples)
    assert counts[0] > counts.get(100, 0)
    assert sum(1 for sample in samples if sample < 10) > len(samples) * 0.4


def test_higher_skew_means_hotter_head():
    population = 500
    draws = 3000
    means = {}
    for skew in (0.5, 2.0):
        rng_local = random.Random(11)
        distribution = ZipfianDistribution(skew)
        samples = [distribution.sample(rng_local, population) for _ in range(draws)]
        means[skew] = sum(samples) / draws
    assert means[2.0] < means[0.5]


def test_zipfian_samples_stay_in_bounds(rng):
    distribution = ZipfianDistribution(2.0)
    samples = [distribution.sample(rng, 7) for _ in range(300)]
    assert min(samples) >= 0
    assert max(samples) < 7


def test_zipfian_cdf_is_cached(rng):
    # One table per (skew, population) for every distribution of the process,
    # a bounded number of them, and immutable because they are shared.
    cumulative_weights.cache_clear()
    ZipfianDistribution(1.0).sample(rng, 100)
    cached = cumulative_weights(1.0, 100)
    assert isinstance(cached, tuple) and len(cached) == 100
    ZipfianDistribution(1.0).sample(rng, 100)
    make_distribution(1).sample(rng, 100)
    assert cumulative_weights.cache_info().misses == 1
    assert cumulative_weights(1.0, 100) is cached
    assert cumulative_weights(1.5, 100) is not cached
    for population in range(1, 20):
        ZipfianDistribution(1.0).sample(rng, population)
    assert cumulative_weights.cache_info().currsize == cumulative_weights.cache_info().maxsize == 8


def test_make_distribution_dispatch():
    assert isinstance(make_distribution(0), UniformDistribution)
    zipf = make_distribution(1.5)
    assert isinstance(zipf, ZipfianDistribution)
    assert zipf.skew == 1.5


# ------------------------------------------------------------------------ mix
def test_mix_normalizes_weights():
    mix = TransactionMix.from_dict({"a": 2.0, "b": 2.0})
    assert mix.probability("a") == pytest.approx(0.5)
    assert mix.probability("b") == pytest.approx(0.5)
    assert mix.probability("missing") == 0.0


def test_mix_uniform_builder():
    mix = TransactionMix.uniform(["x", "y", "z", "w"])
    assert mix.probability("x") == pytest.approx(0.25)
    assert sorted(mix.functions()) == ["w", "x", "y", "z"]


def test_mix_rejects_empty_or_negative():
    with pytest.raises(WorkloadError):
        TransactionMix.from_dict({})
    with pytest.raises(WorkloadError):
        TransactionMix.from_dict({"a": -1.0})
    with pytest.raises(WorkloadError):
        TransactionMix.from_dict({"a": 0.0})


def test_mix_as_dict_roundtrip():
    weights = {"a": 0.25, "b": 0.75}
    assert TransactionMix.from_dict(weights).as_dict() == pytest.approx(weights)


def test_workload_spec_validation():
    mix = TransactionMix.uniform(["f"])
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="", chaincode="EHR", mix=mix)
    with pytest.raises(WorkloadError):
        WorkloadSpec(name="x", chaincode="", mix=mix)
    spec = WorkloadSpec(name="x", chaincode="EHR", mix=mix, description="demo")
    assert spec.description == "demo"
