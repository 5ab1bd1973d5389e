"""Overhead guard: the isolation checker is free when off, bounded when on.

Mirrors ``tests/test_observability_overhead.py``.  Everything asserted here is
an exact integer of a fixed deterministic cell, so the module cannot fail on a
noisy machine; what the checker costs in wall-clock is ``checker.self_share``
on the ``chaos-audit`` workload of ``python3 -m perfbench``.

* **Structural** — building a deployment with the default (disabled)
  :class:`~repro.checker.config.CheckerConfig` installs nothing: no checker
  object, no bus listener, no ``isolation`` report on the run record.
* **Work when on** — an enabled checker is one object holding exactly one
  listener per terminal lifecycle event, it leaves the simulation untouched
  (lifecycle counts and transaction count equal to the unchecked twin), and
  the work it does — dependency edges inserted into the serialization graph,
  per kind and per committed transaction — is pinned.  A regression in the
  incremental graph maintenance moves these counts before it moves a clock.
"""

from __future__ import annotations

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.checker.config import CheckerConfig
from repro.lifecycle.events import LifecycleEventType
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig

#: Dependency edges the checker inserts on ``CHECKED_CELL``, by kind, and the
#: committed transactions they were inserted for (1.76 edges per commit).
PINNED_EDGES = {"wr": 212, "rw": 119, "si-composed": 364}
PINNED_COMMITTED = 395

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
    network = build_network(
        config=config,
        chaincode_factory=ExperimentConfig().build_chaincode,
        variant_factory="fabric-1.4",
        seed=7,
    )
    assert network.channels[0].isolation_checker is None
    assert not network.bus._listeners, "a disabled checker subscribed a bus listener"


def test_disabled_checker_is_the_default_everywhere():
    assert not CheckerConfig().enabled
    assert not NetworkConfig().checker.enabled
    assert not ExperimentConfig().network.checker.enabled


def test_disabled_checker_leaves_no_report():
    analysis = run_repetition(SMOKE_CELL.with_overrides(duration=1.0), 0)
    assert analysis.record.isolation is None
    assert analysis.metrics.isolation == {}


# ------------------------------------------------------------------- work on
def test_enabled_checker_is_one_listener_per_terminal_event():
    network = build_network(
        config=CHECKED_CELL.network,
        chaincode_factory=CHECKED_CELL.build_chaincode,
        variant_factory="fabric-1.4",
        seed=7,
    )
    checker = network.channels[0].isolation_checker
    assert checker is not None
    listeners = network.bus._listeners
    assert set(listeners) == {LifecycleEventType.COMMITTED, LifecycleEventType.ABORTED}
    for subscribed in listeners.values():
        assert [listener.__self__ for listener in subscribed] == [checker]


def test_checker_work_is_pinned_per_committed_transaction():
    baseline_record = run_repetition(SMOKE_CELL, 0).record
    checked_record = run_repetition(CHECKED_CELL, 0).record
    # The checker observes; it must not perturb the simulation.
    assert checked_record.lifecycle_counts == baseline_record.lifecycle_counts
    assert len(checked_record.transactions) == len(baseline_record.transactions)
    # ...and the conflict-free commit-ordered history must certify.
    report = checked_record.isolation
    assert report is not None
    assert report.verdict == "CERTIFIED-SERIALIZABLE"
    (channel,) = report.channels
    assert channel.committed == PINNED_COMMITTED == checked_record.lifecycle_counts["committed"]
    assert channel.edges == PINNED_EDGES
    assert sum(channel.edges.values()) <= 2 * channel.committed
