"""Shared fixtures for the test suite.

The fixtures provide small, fast network configurations so that end-to-end
tests finish in well under a second each while still exercising the full
Execute-Order-Validate pipeline.  The golden corpus module
(``golden/corpus.py``: the pinned cells, their producers and the gate) is
importable as ``corpus`` from every test module.
"""

from __future__ import annotations

import random
import sys
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentConfig
from repro.network.config import NetworkConfig
from repro.sim.engine import Simulator
from repro.workload.spec import TransactionMix
from repro.workload.workloads import uniform_workload

sys.path.insert(0, str(Path(__file__).parent / "golden"))


@pytest.fixture
def rng() -> random.Random:
    """A deterministic random generator for unit tests."""
    return random.Random(1234)


@pytest.fixture
def sim() -> Simulator:
    """A fresh discrete-event simulator."""
    return Simulator()


@pytest.fixture
def tiny_network_config() -> NetworkConfig:
    """A small C1-style network that runs quickly in tests."""
    return NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=2,
        block_size=10,
        database="leveldb",
    )


@pytest.fixture
def tiny_experiment(tiny_network_config) -> ExperimentConfig:
    """A complete experiment configuration that runs in a fraction of a second."""
    return ExperimentConfig(
        variant="fabric-1.4",
        workload=uniform_workload("EHR", patients=40),
        network=tiny_network_config,
        arrival_rate=60.0,
        duration=3.0,
        zipf_skew=1.0,
        repetitions=1,
        seed=11,
    )


@pytest.fixture
def ehr_mix() -> TransactionMix:
    """The uniform EHR transaction mix."""
    return uniform_workload("EHR").mix
