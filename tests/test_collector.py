"""One read/write set per transaction, and no full collections inside a run.

Pins the two halves of the memory policy (docs/ARCHITECTURE.md, "Memory and
the collector") with exact, machine-independent proxies: object identity,
tracked-object counts and ``gc.callbacks`` counters — never wall-clock.
"""

from __future__ import annotations

import gc
import weakref
from contextlib import contextmanager

import pytest
from corpus import build, run
from test_sharded_execution import assert_computes, plan_free, unrecorded

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.chaincode import CHAINCODE_REGISTRY
from repro.checker.config import CheckerConfig
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.sim.collector import DEFERRED_FULL_COLLECTIONS, quiet_collector
from repro.sim.shard import PROCESS_BUDGET_ENV, ExecutionConfig
from repro.workload.workloads import uniform_workload

#: Tracked objects a run may retain per transaction on :func:`ehr_cell` (an
#: eight-endorser cluster).  One shared read/write set leaves 19; a private
#: copy per endorsement costs 72.
TRACKED_OBJECTS_PER_TX_CEILING = 24


def ehr_cell(**network) -> ExperimentConfig:
    """~370 EHR transactions on cluster C2: eight endorsements each, a few of
    them stale (an endorsement mismatch)."""
    network.setdefault("cluster", "C2")
    return ExperimentConfig(
        variant="fabric-1.4",
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(block_size=10, database="leveldb", **network),
        arrival_rate=100.0,
        duration=4.0,
        zipf_skew=1.0,
        seed=11,
    )


def build_cell(config: ExperimentConfig, record_chain: bool = True):
    """The cell's deployment, its chain recorded unless asked otherwise."""
    return build(config, record_chain=record_chain)


def run_cell(config: ExperimentConfig, network=None):
    return run(network if network is not None else build_cell(config), config)


@contextmanager
def full_collections():
    """Counts the oldest-generation collections that start inside the block."""
    seen = []

    def callback(phase, info):
        if phase == "start" and info["generation"] == 2:
            seen.append(info)

    gc.callbacks.append(callback)
    try:
        yield seen
    finally:
        gc.callbacks.remove(callback)


def collector_state() -> tuple:
    return gc.get_threshold(), gc.isenabled(), gc.get_freeze_count()


def assert_rwsets_shared(transactions) -> None:
    mismatched = 0
    for tx in transactions:
        rwsets = [endorsement.rwset for endorsement in tx.endorsements]
        if not tx.endorsement_mismatch:
            assert all(rwset is tx.rwset for rwset in rwsets), tx.tx_id
            continue
        mismatched += 1
        distinct = {id(rwset): rwset for rwset in rwsets}.values()
        assert len(distinct) >= 2, tx.tx_id
        assert any(rwset != tx.rwset for rwset in distinct), tx.tx_id
    assert 0 < mismatched < len(transactions)


# ------------------------------------------------------------------- sharing
def test_equal_endorsements_share_the_transaction_rwset():
    record = run_cell(ehr_cell())
    assert all(len(tx.endorsements) == 8 for tx in record.transactions if tx.endorsements)
    assert_rwsets_shared(record.transactions)


def test_tracked_objects_per_recorded_transaction_are_pinned():
    config = ehr_cell()
    run_repetition(config, 0, record_chain=True)  # imports, caches and interned strings settle
    gc.collect()
    before = len(gc.get_objects())
    analysis = run_repetition(config, 0, record_chain=True)
    gc.collect()
    retained = len(gc.get_objects()) - before
    transactions = len(analysis.record.transactions)
    assert transactions > 300
    assert retained // transactions <= TRACKED_OBJECTS_PER_TX_CEILING


def test_sharing_holds_with_the_checker_on_and_a_shard_ships_no_chain():
    # The checker crosses the pool with its channel; an observer never does
    # (an observed run keeps the shared clock), and neither does a chain (a
    # recorded run keeps the shared clock too).
    options = dict(
        cluster="C2",
        channels=2,
        cross_channel_rate=0.0,
        checker=CheckerConfig(enabled=True),
    )
    shared_config = ehr_cell(execution=ExecutionConfig(), **options)
    recorded = run_cell(shared_config)
    assert recorded.execution == "shared-clock"
    assert_rwsets_shared(recorded.transactions)
    # An explicit worker count forces the real pool, whatever the core count.
    config = ehr_cell(execution=ExecutionConfig(shard_workers=2), **options)
    sharded = run_cell(config, build_cell(config, record_chain=False))
    assert sharded.execution == "sharded" and sharded.chain is None
    assert sharded.isolation.summary() == recorded.isolation.summary()
    assert_computes(plan_free(sharded), unrecorded(recorded))


# --------------------------------------------------------- full collections
DEPLOYMENTS = {
    "single-channel": dict(),
    # Uncoupled channels share one clock only when recorded (below).
    "shared-clock": dict(channels=2, cross_channel_rate=0.0),
    # Cross-channel traffic: the coordinator's two-phase commits on the one clock.
    "coupled": dict(channels=2, cross_channel_rate=0.05),
    "sharded-in-process": dict(
        channels=2, cross_channel_rate=0.0, execution=ExecutionConfig(shard_workers=0)
    ),
}


@pytest.mark.parametrize("deployment", DEPLOYMENTS)
def test_no_full_collection_starts_inside_a_run(monkeypatch, deployment):
    # A budget of one process drains every shard of the sharded plan here.
    monkeypatch.setenv(PROCESS_BUDGET_ENV, "1")
    config = ehr_cell(**DEPLOYMENTS[deployment])
    # Enough transactions that the interpreter's own schedule would have run
    # full collections (it does, at the parent of this change).
    config = config.with_overrides(duration=20.0)
    network = build_cell(config, record_chain=deployment == "shared-clock")
    gc.collect()  # nothing owed from earlier tests: the scope would pay it on entry
    state = collector_state()
    with full_collections() as seen:
        record = run_cell(config, network)
    assert record.submitted_count > 1500
    if deployment == "sharded-in-process":
        assert record.execution == "sharded" and network.shard_workers_used == 1
    if deployment == "shared-clock":
        assert record.execution == "shared-clock"
    assert seen == []
    assert collector_state() == state


def test_chained_runs_leave_at_most_one_run_of_cyclic_garbage_outstanding():
    # Span trees and checker graphs are cyclic; with full collections deferred
    # inside every run and no room between two runs, only the scope's own
    # entry can let the interpreter reclaim the previous run's.
    config = ehr_cell(
        cluster="C1",
        checker=CheckerConfig(enabled=True),
        observability=ObservabilityConfig(trace=True, metrics=True),
    ).with_overrides(duration=25.0)
    tracked = []
    with full_collections() as seen:
        for repetition in range(5):
            run_repetition(config, repetition)
            tracked.append(len(gc.get_objects()))
    assert len(seen) >= 3
    assert max(tracked) < 1.1 * tracked[0]


def test_a_dropped_deployment_frees_its_genesis_state_by_reference_counting():
    # Full collections are deferred, so what a cell owns must not wait for one:
    # no cycle may run through the channel slice (the gateway in front of its
    # orderer holds the orderer, not the slice).  The frozen genesis base is
    # the one thing kept on purpose — the next cell of the process overlays it
    # (tests/test_genesis_sharing.py pins when it is let go).
    config = ehr_cell(cluster="C1").with_overrides(duration=1.0)
    network = build_cell(config)
    channel = network.channels[0]
    state_base = channel.state_base
    overlays = [channel.validator.store] + [
        peer.store for peer in channel.peers if peer.store is not None
    ]
    assert len(overlays) == 3 and all(overlay.base is state_base for overlay in overlays)
    owned = [weakref.ref(item) for item in (channel, channel.orderer, *channel.peers, *overlays)]
    ledger = weakref.ref(channel.ledger)
    del channel, overlays
    gc.disable()
    try:
        record = run_cell(config, network)
        assert record.transactions and ledger() is record.ledger
        del network
        assert [item() for item in owned] == [None] * len(owned)
        del record
        assert ledger() is None
        assert build_cell(config).channels[0].state_base is state_base
    finally:
        gc.enable()


# ------------------------------------------------------------ scope hygiene
def test_collector_state_is_restored_after_a_run_whose_chaincode_raises(monkeypatch):
    spec = uniform_workload("EHR", patients=40)

    def explode(self, stub, function, args):
        assert gc.get_threshold()[2] == DEFERRED_FULL_COLLECTIONS
        raise RuntimeError("chaincode failed")

    monkeypatch.setattr(CHAINCODE_REGISTRY[spec.chaincode], "execute", explode)
    network = build_network(
        NetworkConfig(cluster="C1", database="leveldb"),
        spec.chaincode,
        "fabric-1.4",
        chaincode_kwargs=spec.chaincode_kwargs,
    )
    state = collector_state()
    with pytest.raises(RuntimeError, match="chaincode failed"):
        network.run(spec.mix, arrival_rate=50.0, duration=1.0)
    assert collector_state() == state


def test_nested_scopes_restore_only_at_the_outermost_exit():
    state = collector_state()
    with quiet_collector():
        deferred = collector_state()
        assert deferred[0] == (*state[0][:2], DEFERRED_FULL_COLLECTIONS)
        assert deferred[1:] == state[1:]
        with quiet_collector():
            assert collector_state() == deferred
            run_cell(ehr_cell(cluster="C1"))
            assert collector_state() == deferred
        assert collector_state() == deferred
    assert collector_state() == state


def test_a_disabled_collector_is_never_touched(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "set_threshold", lambda *args: calls.append(args))
    gc.disable()
    try:
        state = collector_state()
        with quiet_collector():
            assert collector_state() == state
        run_repetition(ehr_cell(cluster="C1"), 0)
        assert collector_state() == state
    finally:
        gc.enable()
    assert calls == []

