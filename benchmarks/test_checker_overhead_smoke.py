"""Overhead guard: the isolation checker is free when off, cheap when on.

Tier-1 counterpart of ``bench_checker_overhead.py``, mirroring
``test_observability_overhead.py``:

* **Structural** — building a deployment with the default (disabled)
  :class:`~repro.checker.config.CheckerConfig` installs nothing: no checker
  object, no bus listener, no ``isolation`` report on the run record.  This
  catches a zero-cost regression exactly, independent of machine noise.
* **Measured** — with checking *enabled*, the full pipeline must sustain at
  least ``OVERHEAD_FLOOR`` of the unchecked events/sec (the issue's <= 10%
  acceptance bar).  Each round pairs one unchecked run with one checked run
  back to back and the guard takes the *median* of the per-round ratios, so
  scheduler jitter on shared CI runners cancels out.  Both runs of a pair are
  the same deterministic cell, asserted event-for-event, so the ratio
  isolates exactly the cost of the online serialization-graph maintenance.
"""

from __future__ import annotations

import gc
import statistics
import time

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.checker.config import CheckerConfig
from repro.fabric import create_variant
from repro.network.config import NetworkConfig
from repro.network.network import FabricNetwork

ROUNDS = 5
OVERHEAD_FLOOR = 0.90  # checked events/sec must stay within 10% of unchecked

SMOKE_NETWORK = NetworkConfig(cluster="C1", database="leveldb", block_size=10)
SMOKE_CELL = ExperimentConfig(
    network=SMOKE_NETWORK, arrival_rate=200.0, duration=6.0, seed=7
)
CHECKED_CELL = SMOKE_CELL.with_overrides(
    network=SMOKE_NETWORK.copy(checker=CheckerConfig(enabled=True))
)


# ------------------------------------------------------------------ structural
def test_disabled_checker_installs_nothing():
    config = NetworkConfig(cluster="C1", database="leveldb", block_size=10)
    assert not config.checker.enabled
    network = FabricNetwork(
        config=config,
        chaincode=ExperimentConfig().build_chaincode(),
        variant=create_variant("fabric-1.4"),
        seed=7,
    )
    assert network.isolation_checker is None
    assert not network.bus._listeners, "a disabled checker subscribed a bus listener"


def test_disabled_checker_is_the_default_everywhere():
    assert not CheckerConfig().enabled
    assert not NetworkConfig().checker.enabled
    assert not ExperimentConfig().network.checker.enabled


def test_disabled_checker_leaves_no_report():
    analysis = run_repetition(SMOKE_CELL.with_overrides(duration=1.0), 0)
    assert analysis.record.isolation is None
    assert analysis.metrics.isolation == {}


# -------------------------------------------------------------------- measured
def timed_cell(config: ExperimentConfig) -> tuple:
    """One full-pipeline run, timed as a user runs it (``run_repetition``
    defers full collections itself — see :mod:`repro.sim.collector`)."""
    # Start like a fresh process, with nothing owed: chained runs have the
    # scope reclaim the previous run's cyclic garbage on entry, and a checked
    # cell leaves more of it than an unchecked one — inside the other's timer.
    gc.collect()
    start = time.perf_counter()
    analysis = run_repetition(config, 0)
    wall = time.perf_counter() - start
    events = sum(analysis.record.lifecycle_counts.values())
    return events / wall, analysis.record


def test_checker_overhead_within_ten_percent():
    # Warm both code paths once; the first pass through the network/chaincode
    # code in a process runs well below steady state.
    timed_cell(SMOKE_CELL)
    timed_cell(CHECKED_CELL)

    ratios = []
    for _ in range(ROUNDS):
        baseline_eps, baseline_record = timed_cell(SMOKE_CELL)
        checked_eps, checked_record = timed_cell(CHECKED_CELL)
        # The checker observes; it must not perturb the simulation.
        assert checked_record.lifecycle_counts == baseline_record.lifecycle_counts
        assert len(checked_record.transactions) == len(baseline_record.transactions)
        # ...and the conflict-free commit-ordered history must certify.
        assert checked_record.isolation is not None
        assert checked_record.isolation.verdict == "CERTIFIED-SERIALIZABLE"
        ratios.append(checked_eps / baseline_eps)

    ratio = statistics.median(ratios)
    assert ratio >= OVERHEAD_FLOOR, (
        f"pipeline with isolation checking sustained a median {ratio:.3f}x of the "
        f"unchecked events/sec over {ROUNDS} paired rounds "
        f"({[f'{r:.3f}' for r in ratios]}); floor is {OVERHEAD_FLOOR}x"
    )
