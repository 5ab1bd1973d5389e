"""The lifecycle bus against a reference bus, program by program.

``ReferenceBus`` is the plainest bus there is: a list of handlers per event
type, looked up in a dict and copied before every delivery.  For every
program hypothesis draws — handlers registered for any type at any point,
handlers that register another handler on their first delivery, emissions of
any type — both buses must hand the same transactions to the same handlers in
the same order and count the same.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.block import Transaction, ValidationCode
from repro.lifecycle.events import _EVENT_TYPES, LifecycleBus, LifecycleEventType


class ReferenceBus:
    """One list of handlers per type; every delivery iterates a snapshot."""

    def __init__(self) -> None:
        self._handlers: Dict[LifecycleEventType, list] = {}
        self._counts: Dict[LifecycleEventType, int] = {}

    def handle(self, event_type, handler) -> None:
        self._handlers.setdefault(event_type, []).append(handler)

    def emit(self, event_type, tx) -> None:
        self._counts[event_type] = self._counts.get(event_type, 0) + 1
        for handler in list(self._handlers.get(event_type, ())):
            handler(tx)

    def count(self, event_type) -> int:
        return self._counts.get(event_type, 0)


CODES = (None, ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT, ValidationCode.EARLY_ABORT)

EVENT_TYPE = st.sampled_from(_EVENT_TYPES)
#: (event type, the type of the handler it registers on its first delivery
#: or None)
REGISTRATION = st.tuples(EVENT_TYPE, st.one_of(st.none(), EVENT_TYPE))
EMISSION = st.tuples(
    EVENT_TYPE,
    st.sampled_from(CODES),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
STEP = st.one_of(
    st.tuples(st.just("handle"), REGISTRATION),
    st.tuples(st.just("emit"), EMISSION),
)


def make_tx(number: int, code, channel) -> Transaction:
    tx = Transaction(
        tx_id=f"tx-{number}", client_name="client-0", chaincode_name="EHR", function="f"
    )
    tx.validation_code = code
    tx.channel = channel
    return tx


def run_program(bus_class, before, steps) -> Tuple[list, list]:
    """Run one program on one bus; return (deliveries, counts)."""
    bus = bus_class()
    deliveries: list = []
    registered: List[LifecycleEventType] = []

    def register(event_type, registers_on_first):
        name = len(registered)
        first = [True]

        def handler(tx):
            deliveries.append((name, event_type, tx.tx_id, tx.channel))
            if first[0] and registers_on_first is not None:
                register(registers_on_first, None)
            first[0] = False

        registered.append(event_type)
        bus.handle(event_type, handler)

    for registration in before:
        register(*registration)
    for number, (kind, payload) in enumerate(steps):
        if kind == "handle":
            register(*payload)
        else:
            event_type, code, channel = payload
            bus.emit(event_type, make_tx(number, code, channel))
    return deliveries, [bus.count(event_type) for event_type in _EVENT_TYPES]


@settings(max_examples=300, deadline=None)
@given(
    before=st.lists(REGISTRATION, max_size=6),
    steps=st.lists(STEP, max_size=25),
)
def test_bus_delivers_and_counts_like_the_reference_bus(before, steps):
    deliveries, counts = run_program(LifecycleBus, before, steps)
    expected_deliveries, expected_counts = run_program(ReferenceBus, before, steps)
    assert deliveries == expected_deliveries
    assert counts == expected_counts
