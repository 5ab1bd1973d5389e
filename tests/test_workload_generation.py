"""Unit tests for the workload generator, canonical workloads and arrivals."""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.chaincode.ehr import ElectronicHealthRecordsChaincode
from repro.chaincode.genchain import GenChainChaincode
from repro.errors import WorkloadError
from repro.workload.client import ArrivalProcess
from repro.workload.distributions import ZipfianDistribution
from repro.workload.generator import WorkloadGenerator
from repro.workload.spec import TransactionMix
from repro.workload.workloads import (
    SYNTHETIC_WORKLOADS,
    read_update_uniform,
    synthetic_workload,
    uniform_workload,
)


def make_generator(mix=None, chaincode=None, seed=3, distribution=None):
    chaincode = chaincode or GenChainChaincode(num_keys=1000)
    mix = mix or TransactionMix.uniform(chaincode.invocable_functions())
    return WorkloadGenerator(chaincode, mix, random.Random(seed), key_distribution=distribution)


# -------------------------------------------------------------------- generator
def test_requests_follow_the_mix_distribution():
    mix = TransactionMix.from_dict({"readKey": 0.9, "updateKey": 0.1})
    generator = make_generator(mix=mix)
    functions = Counter(request.function for request in generator.generate(500))
    assert functions["readKey"] > functions["updateKey"]
    assert set(functions) == {"readKey", "updateKey"}


def test_requests_carry_read_only_flag():
    generator = make_generator()
    for request in generator.generate(50):
        expected = generator.chaincode.is_read_only(request.function)
        assert request.read_only == expected


def test_unknown_function_in_mix_rejected():
    chaincode = GenChainChaincode(num_keys=100)
    mix = TransactionMix.from_dict({"bogus": 1.0})
    with pytest.raises(WorkloadError):
        WorkloadGenerator(chaincode, mix, random.Random(0))


def test_key_distribution_is_applied():
    distribution = ZipfianDistribution(3.0)
    mix = TransactionMix.from_dict({"readKey": 1.0})
    generator = make_generator(mix=mix, distribution=distribution)
    indexes = [request.args[0] for request in generator.generate(300)]
    assert sum(1 for index in indexes if index < 5) > len(indexes) * 0.5


def test_generate_rejects_negative_count():
    with pytest.raises(WorkloadError):
        make_generator().generate(-1)


def test_generator_is_deterministic_per_seed():
    first = [request.function for request in make_generator(seed=9).generate(30)]
    second = [request.function for request in make_generator(seed=9).generate(30)]
    assert first == second


# -------------------------------------------------------------------- workloads
def test_heavy_workloads_have_eighty_percent_share():
    for abbreviation, factory in SYNTHETIC_WORKLOADS.items():
        spec = factory()
        heavy_function, weight = max(spec.mix.weights, key=lambda pair: pair[1])
        assert weight == pytest.approx(0.8), abbreviation
        assert spec.chaincode == "genChain"


def test_update_heavy_majority_is_update():
    spec = synthetic_workload("UH")
    assert spec.mix.probability("updateKey") == pytest.approx(0.8)


def test_include_range_false_drops_range_reads():
    spec = synthetic_workload("UH", include_range=False)
    assert spec.mix.probability("rangeRead") == 0.0
    assert spec.mix.probability("updateKey") == pytest.approx(0.8)


def test_unknown_synthetic_workload_rejected():
    with pytest.raises(WorkloadError):
        synthetic_workload("XX")


def test_uniform_workload_for_use_cases():
    spec = uniform_workload("EHR")
    assert spec.chaincode == "EHR"
    assert "initLedger" not in spec.mix.functions()
    chaincode = ElectronicHealthRecordsChaincode()
    assert set(spec.mix.functions()) <= set(chaincode.functions())


def test_uniform_workload_unknown_chaincode():
    with pytest.raises(WorkloadError):
        uniform_workload("UNKNOWN")


def test_read_update_uniform_restricts_active_keys():
    spec = read_update_uniform()
    assert spec.chaincode_kwargs["active_keys"] == 2000
    assert spec.mix.probability("readKey") == pytest.approx(0.5)
    assert spec.mix.probability("updateKey") == pytest.approx(0.5)


def test_workload_specs_can_scale_chaincode_population():
    spec = synthetic_workload("RH", num_keys=1234)
    assert spec.chaincode_kwargs["num_keys"] == 1234


# --------------------------------------------------------------------- arrivals
def test_arrival_schedule_covers_duration():
    process = ArrivalProcess(rate=50.0, rng=random.Random(5))
    arrivals = process.schedule(10.0)
    assert 300 < len(arrivals) < 700
    assert all(0 <= time < 10.0 for time in arrivals)
    assert list(arrivals) == sorted(arrivals)


def test_arrival_process_validation():
    with pytest.raises(WorkloadError):
        ArrivalProcess(rate=0.0, rng=random.Random(0))
    process = ArrivalProcess(rate=5.0, rng=random.Random(0))
    with pytest.raises(WorkloadError):
        process.schedule(-1.0)
    assert len(process.schedule(0.0)) == 0
