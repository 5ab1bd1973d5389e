"""Unit tests for the lifecycle event bus and the typed event stream."""

from __future__ import annotations

import pytest

from repro.core.failures import FAILURE_OF_CODE, FailureType
from repro.errors import SimulationError
from repro.ledger.block import Transaction, ValidationCode
from repro.lifecycle.events import (
    LifecycleBus,
    LifecycleEvent,
    LifecycleEventType,
    failure_type_of,
)


def make_tx(code=None, block_number=None, conflicting_block=None, attempt=0) -> Transaction:
    tx = Transaction(
        tx_id="tx-1",
        client_name="client-0",
        chaincode_name="EHR",
        function="f",
        attempt=attempt,
    )
    tx.validation_code = code
    tx.block_number = block_number
    tx.conflicting_block = conflicting_block
    return tx


def event(event_type: LifecycleEventType, tx=None, time=1.0) -> LifecycleEvent:
    return LifecycleEvent(type=event_type, time=time, transaction=tx or make_tx())


# ----------------------------------------------------------------------- bus
def test_bus_dispatches_to_type_listeners_and_all_listeners():
    bus = LifecycleBus()
    seen_typed, seen_all = [], []
    bus.subscribe(LifecycleEventType.ABORTED, seen_typed.append)
    bus.subscribe(None, seen_all.append)
    aborted = event(LifecycleEventType.ABORTED)
    committed = event(LifecycleEventType.COMMITTED)
    bus.emit(aborted)
    bus.emit(committed)
    assert seen_typed == [aborted]
    assert seen_all == [aborted, committed]


def test_bus_counts_every_emitted_event():
    bus = LifecycleBus()
    for _ in range(3):
        bus.emit(event(LifecycleEventType.SUBMITTED))
    bus.emit(event(LifecycleEventType.COMMITTED))
    assert bus.count(LifecycleEventType.SUBMITTED) == 3
    assert bus.count(LifecycleEventType.COMMITTED) == 1
    assert bus.count(LifecycleEventType.ABORTED) == 0
    assert bus.counts_by_name() == {"committed": 1, "submitted": 3}


def test_bus_unsubscribe_stops_delivery():
    bus = LifecycleBus()
    seen = []
    bus.subscribe(LifecycleEventType.ORDERED, seen.append)
    bus.emit(event(LifecycleEventType.ORDERED))
    bus.unsubscribe(LifecycleEventType.ORDERED, seen.append)
    bus.emit(event(LifecycleEventType.ORDERED))
    assert len(seen) == 1
    # Removing an absent listener is a harmless no-op.
    bus.unsubscribe(LifecycleEventType.ORDERED, seen.append)
    bus.unsubscribe(None, seen.append)


def test_bus_pipe_to_forwards_to_parent_with_both_counting():
    child, parent = LifecycleBus(), LifecycleBus()
    child.pipe_to(parent)
    seen = []
    parent.subscribe(LifecycleEventType.VALIDATED, seen.append)
    child.emit(event(LifecycleEventType.VALIDATED))
    assert len(seen) == 1
    assert child.count(LifecycleEventType.VALIDATED) == 1
    assert parent.count(LifecycleEventType.VALIDATED) == 1


def test_piped_delivery_is_own_typed_then_own_all_then_the_parents():
    child, parent = LifecycleBus(), LifecycleBus()
    order = []
    child.subscribe(None, lambda e: order.append("child-all"))
    child.pipe_to(parent)
    # Subscribed after the pipe was made, on either side: served all the same.
    parent.subscribe(None, lambda e: order.append("parent-all"))
    parent.subscribe(LifecycleEventType.ABORTED, lambda e: order.append("parent-typed"))
    child.subscribe(LifecycleEventType.ABORTED, lambda e: order.append("child-typed"))
    child.emit_failure(LifecycleEventType.ABORTED, 1.0, make_tx(ValidationCode.EARLY_ABORT))
    assert order == ["child-typed", "child-all", "parent-typed", "parent-all"]


def test_one_event_object_travels_a_two_level_pipe():
    channel, group, deployment = LifecycleBus(), LifecycleBus(), LifecycleBus()
    channel.pipe_to(group)
    group.pipe_to(deployment)
    seen = []
    group.subscribe(LifecycleEventType.COMMITTED, seen.append)
    deployment.subscribe(None, seen.append)
    channel.emit_tx(LifecycleEventType.COMMITTED, 2.0, make_tx(ValidationCode.VALID))
    assert len(seen) == 2 and seen[0] is seen[1]
    assert seen[0].type is LifecycleEventType.COMMITTED and seen[0].time == 2.0
    # Every bus on the chain counts, listened to or not.
    channel.emit_tx(LifecycleEventType.ORDERED, 3.0, make_tx())
    for bus in (channel, group, deployment):
        assert bus.counts_by_name() == {"committed": 1, "ordered": 1}
    # An emission on the middle bus goes up, never down.
    group.emit_tx(LifecycleEventType.COMMITTED, 4.0, make_tx(ValidationCode.VALID))
    assert channel.count(LifecycleEventType.COMMITTED) == 1
    assert deployment.count(LifecycleEventType.COMMITTED) == 2


def test_prebuilt_event_emitted_on_a_child_reaches_the_parent():
    child, parent = LifecycleBus(), LifecycleBus()
    child.pipe_to(parent)
    seen = []
    parent.subscribe(None, seen.append)
    prebuilt = event(LifecycleEventType.ENDORSED)
    child.emit(prebuilt)
    assert seen == [prebuilt] and seen[0] is prebuilt
    assert parent.count(LifecycleEventType.ENDORSED) == 1


def test_unsubscribing_during_delivery_does_not_disturb_the_emission_in_flight():
    child, parent = LifecycleBus(), LifecycleBus()
    child.pipe_to(parent)
    seen = []

    def once(e):
        seen.append("once")
        child.unsubscribe(LifecycleEventType.SUBMITTED, once)
        child.unsubscribe(LifecycleEventType.SUBMITTED, second)

    def second(e):
        seen.append("second")

    child.subscribe(LifecycleEventType.SUBMITTED, once)
    child.subscribe(LifecycleEventType.SUBMITTED, second)
    parent.subscribe(LifecycleEventType.SUBMITTED, lambda e: seen.append("parent"))
    child.emit_tx(LifecycleEventType.SUBMITTED, 0.5, make_tx())
    child.emit_tx(LifecycleEventType.SUBMITTED, 0.6, make_tx())
    assert seen == ["once", "second", "parent", "parent"]


def test_bus_refuses_a_pipe_into_itself_or_a_descendant():
    top, middle, bottom = LifecycleBus(), LifecycleBus(), LifecycleBus()
    with pytest.raises(SimulationError):
        top.pipe_to(top)
    bottom.pipe_to(middle)
    middle.pipe_to(top)
    with pytest.raises(SimulationError):
        top.pipe_to(bottom)
    # The refused pipes left nothing behind: an emission still terminates.
    bottom.emit_tx(LifecycleEventType.SUBMITTED, 0.0, make_tx())
    assert top.count(LifecycleEventType.SUBMITTED) == 1


def test_bus_refuses_a_second_pipe():
    child, parent = LifecycleBus(), LifecycleBus()
    child.pipe_to(parent)
    with pytest.raises(SimulationError):
        child.pipe_to(parent)
    with pytest.raises(SimulationError):
        child.pipe_to(LifecycleBus())
    child.emit_tx(LifecycleEventType.SUBMITTED, 0.0, make_tx())
    assert parent.count(LifecycleEventType.SUBMITTED) == 1


def test_event_attempt_mirrors_the_transaction():
    assert event(LifecycleEventType.SUBMITTED, make_tx(attempt=2)).attempt == 2


# ----------------------------------------------------------- failure mapping
def test_failure_type_of_returns_none_for_valid_and_unvalidated():
    assert failure_type_of(make_tx(ValidationCode.VALID)) is None
    assert failure_type_of(make_tx(None)) is None


def test_failure_type_of_splits_mvcc_by_conflicting_block():
    intra = make_tx(ValidationCode.MVCC_READ_CONFLICT, block_number=5, conflicting_block=5)
    inter = make_tx(ValidationCode.MVCC_READ_CONFLICT, block_number=5, conflicting_block=3)
    unknown = make_tx(ValidationCode.MVCC_READ_CONFLICT, block_number=5)
    assert failure_type_of(intra) is FailureType.MVCC_INTRA_BLOCK
    assert failure_type_of(inter) is FailureType.MVCC_INTER_BLOCK
    assert failure_type_of(unknown) is FailureType.MVCC_INTER_BLOCK


def test_failure_type_of_maps_every_terminal_code():
    expected = {
        ValidationCode.ENDORSEMENT_POLICY_FAILURE: FailureType.ENDORSEMENT_POLICY,
        ValidationCode.PHANTOM_READ_CONFLICT: FailureType.PHANTOM_READ,
        ValidationCode.ABORTED_BY_REORDERING: FailureType.ORDERING_ABORT,
        ValidationCode.EARLY_ABORT: FailureType.EARLY_ABORT,
        ValidationCode.CROSS_CHANNEL_ABORT: FailureType.CROSS_CHANNEL_ABORT,
    }
    for code, failure in expected.items():
        assert failure_type_of(make_tx(code)) is failure
    # The table behind it is total: every code but VALID names a class, so no
    # component can stamp a code the analysis would not know how to report.
    assert set(FAILURE_OF_CODE) == set(ValidationCode) - {ValidationCode.VALID}
    assert all(failure_type_of(make_tx(code)) is FAILURE_OF_CODE[code] for code in FAILURE_OF_CODE)
