"""Unit tests for the lifecycle event bus and the typed event stream."""

from __future__ import annotations

from repro.core.failures import FAILURE_OF_CODE, FailureType
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


def test_unsubscribing_during_delivery_does_not_disturb_the_emission_in_flight():
    bus = LifecycleBus()
    seen = []

    def once(e):
        seen.append("once")
        bus.unsubscribe(LifecycleEventType.SUBMITTED, once)
        bus.unsubscribe(LifecycleEventType.SUBMITTED, second)

    def second(e):
        seen.append("second")

    bus.subscribe(None, lambda e: seen.append("all"))
    bus.subscribe(LifecycleEventType.SUBMITTED, once)
    bus.subscribe(LifecycleEventType.SUBMITTED, second)
    bus.emit_tx(LifecycleEventType.SUBMITTED, 0.5, make_tx())
    bus.emit_tx(LifecycleEventType.SUBMITTED, 0.6, make_tx())
    assert seen == ["once", "second", "all", "all"]
    assert bus.count(LifecycleEventType.SUBMITTED) == 2


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
