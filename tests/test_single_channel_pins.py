"""The single-channel bytes, pinned across the move to one deployment class.

Every fingerprint in the golden corpus (cells ``pins/<name>``) was first
captured at the commit *before* the stand-alone single-channel deployment was
deleted, by running the cell through that class's own ``run``.  They are
asserted here through :func:`~repro.lifecycle.pipeline.build_network`, i.e.
through the one deployment (:class:`~repro.channels.network.MultiChannelNetwork`)
on its one-channel plan: transaction ids, stream families, the un-stamped
``tx.channel``, the ``RunRecord.ledger`` shape, trace and metrics exports and
the committed history must all be what they were.
"""

from __future__ import annotations

import pytest
from corpus import (
    PIN_CELLS,
    assert_pinned,
    build,
    export_entries,
    fingerprint_entry,
    history_entry,
    run,
)
from test_network_validator import spy_on_paths

from repro.core.fingerprint import record_fingerprint
from repro.lifecycle.events import LifecycleEventType
from repro.sim.shard import ExecutionConfig


@pytest.mark.parametrize("name", list(PIN_CELLS))
def test_single_channel_cell_keeps_the_pinned_fingerprint(name):
    config = PIN_CELLS[name]
    record = run(build(config, record_chain=True), config)
    assert_pinned(f"pins/{name}", "fingerprint", fingerprint_entry(record))
    # The merge of a one-channel deployment *is* its channel's record.
    assert record.channel_records == []
    assert record.ledger.height > 0
    assert record.execution == "shared-clock" and record.shard_count == 1
    assert all(tx.channel is None for tx in record.transactions)
    assert record.transactions[0].tx_id == "tx-00000000"


#: name -> (phantom-checked range reads decided from the keys written since
#: their state, range reads re-scanned) when the cell runs.
PHANTOM_PATHS = {
    "fabric++/SCM/C2": (72, 0),
    "DV/no-read-only+client-check": (111, 0),
}


@pytest.mark.parametrize("name", list(PHANTOM_PATHS))
def test_phantom_checks_are_decided_from_the_keys_written(name, monkeypatch):
    calls = spy_on_paths(monkeypatch)
    config = PIN_CELLS[name]
    record = run(build(config, record_chain=True), config)
    assert (calls["probe"], calls["rescan"]) == PHANTOM_PATHS[name]
    assert_pinned(f"pins/{name}", "fingerprint", fingerprint_entry(record))


def test_chaos_cell_exports_the_pinned_bytes():
    config = PIN_CELLS["chaos/C2"]
    record = run(build(config, record_chain=True), config)
    assert record.fault_injections and record.resubmissions > 0
    assert record.retry_rate_denied > 0
    assert record.isolation.verdict == "CERTIFIED-SERIALIZABLE"
    for part, entry in export_entries(record.observability).items():
        assert_pinned("pins/chaos/C2", part, entry)
    assert_pinned("pins/chaos/C2", "history", history_entry(record))


def test_transaction_ids_are_a_function_of_the_run_not_of_process_history():
    config = PIN_CELLS["fabric-1.4/EHR/C1"]
    first = record_fingerprint(run(build(config, record_chain=True), config))
    second = record_fingerprint(run(build(config, record_chain=True), config))
    assert first == second


@pytest.mark.parametrize("shard_workers", [0, 1, 2])
def test_one_channel_deployment_is_the_one_group_shared_clock_plan(shard_workers):
    config = PIN_CELLS["fabric-1.4/EHR/C1"]
    config = config.with_overrides(
        network=config.network.copy(execution=ExecutionConfig(shard_workers=shard_workers))
    )
    deployment = build(config)
    assert deployment.execution_mode == "shared-clock"
    assert deployment.coordinator is None
    (channel,) = deployment.channels
    assert deployment.sim is channel.sim


def hear_every_emission(deployment) -> list:
    """Register one handler on every event type of every channel bus.

    Returns one list per channel, in channel order, that its handler appends
    each transaction it is handed to.
    """
    heard = []
    for channel in deployment.channels:
        calls: list = []
        for event_type in LifecycleEventType:
            channel.bus.handle(event_type, calls.append)
        heard.append(calls)
    return heard


def test_a_handler_on_the_one_channel_bus_is_handed_every_emission():
    config = PIN_CELLS["fabric-1.4/EHR/C1"]
    deployment = build(config)
    (heard,) = hear_every_emission(deployment)
    record = run(deployment, config)
    assert record.lifecycle_counts["committed"] > 0
    assert len(heard) == sum(record.lifecycle_counts.values())


def test_a_handler_on_each_of_eight_channel_buses_is_handed_its_channel_emissions():
    # Eight channel buses, one per chain: each handler hears its own channel
    # only, once per emission counted there.  Recorded, so the eight share one
    # clock and are built before the run.
    config = PIN_CELLS["fabric-1.4/EHR/C1"]
    config = config.with_overrides(network=config.network.copy(channels=8))
    deployment = build(config, record_chain=True)
    heard = hear_every_emission(deployment)
    record = run(deployment, config)
    assert record.lifecycle_counts["committed"] > 0
    assert [len(calls) for calls in heard] == [
        sum(channel.record.lifecycle_counts.values()) for channel in record.channel_records
    ]
    for index, calls in enumerate(heard):
        assert {tx.channel for tx in calls} == {index}
    for name, count in record.lifecycle_counts.items():
        assert count == sum(
            channel.record.lifecycle_counts.get(name, 0) for channel in record.channel_records
        )
