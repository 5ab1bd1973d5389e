"""The piped lifecycle bus against the bus it replaced, program by program.

``ReferenceBus`` is the bus as it was while a pipe was an all-events listener
(``subscribe(None, parent.emit)``): every emission on a piped bus built an
event and called the parent's ``emit``.  A pipe is now a parent link walked at
emit time.  For every program hypothesis draws — a chain of one to three buses,
listeners subscribed before and after the pipes are made, listeners that
unsubscribe themselves mid-delivery, all three emitters on any bus of the
chain — both buses must deliver the same events to the same listeners in the
same order and count the same on every bus.

One ordering is deliberately outside the programs: an all-events listener
subscribed on a piped bus *after* its pipe.  The reference served it after the
parent (subscription order); the bus serves a bus's own listeners first.  No
bus in the repository has such a listener (channel buses carry the checker and
the retry controller, both type-specific).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.block import Transaction, ValidationCode
from repro.lifecycle.events import (
    _EVENT_TYPES,
    LifecycleBus,
    LifecycleEvent,
    LifecycleEventType,
    failure_type_of,
)


class ReferenceBus:
    """The bus before pipes became parent links (kept verbatim as the oracle)."""

    def __init__(self) -> None:
        self._listeners: Dict[LifecycleEventType, list] = {}
        self._all_listeners: list = []
        self._dispatch: List[tuple] = [()] * len(_EVENT_TYPES)
        self._counts: List[int] = [0] * len(_EVENT_TYPES)

    def subscribe(self, event_type, listener) -> None:
        if event_type is None:
            self._all_listeners.append(listener)
        else:
            self._listeners.setdefault(event_type, []).append(listener)
        self._rebuild_dispatch()

    def unsubscribe(self, event_type, listener) -> None:
        listeners = (
            self._all_listeners if event_type is None else self._listeners.get(event_type, [])
        )
        if listener in listeners:
            listeners.remove(listener)
        self._rebuild_dispatch()

    def _rebuild_dispatch(self) -> None:
        all_listeners = tuple(self._all_listeners)
        listeners = self._listeners
        self._dispatch = [
            tuple(listeners.get(event_type, ())) + all_listeners for event_type in _EVENT_TYPES
        ]

    def emit(self, event) -> None:
        index = event.type._bus_index
        self._counts[index] += 1
        for listener in self._dispatch[index]:
            listener(event)

    def emit_tx(self, event_type, time, tx, failure_type=None) -> None:
        index = event_type._bus_index
        self._counts[index] += 1
        listeners = self._dispatch[index]
        if not listeners:
            return
        event = LifecycleEvent(
            type=event_type, time=time, transaction=tx, failure_type=failure_type,
            channel=tx.channel,
        )
        for listener in listeners:
            listener(event)

    def emit_failure(self, event_type, time, tx) -> None:
        index = event_type._bus_index
        self._counts[index] += 1
        listeners = self._dispatch[index]
        if not listeners:
            return
        event = LifecycleEvent(
            type=event_type, time=time, transaction=tx, failure_type=failure_type_of(tx),
            channel=tx.channel,
        )
        for listener in listeners:
            listener(event)

    def pipe_to(self, parent) -> None:
        self.subscribe(None, parent.emit)

    def count(self, event_type) -> int:
        return self._counts[event_type._bus_index]


CODES = (None, ValidationCode.VALID, ValidationCode.MVCC_READ_CONFLICT, ValidationCode.EARLY_ABORT)

BUS = st.integers(min_value=0, max_value=2)
EVENT_TYPE = st.sampled_from(_EVENT_TYPES)
#: (bus, event type or None for all events, whether the listener removes itself
#: on its first delivery)
SUBSCRIPTION = st.tuples(BUS, st.one_of(st.none(), EVENT_TYPE), st.booleans())
TYPED_SUBSCRIPTION = st.tuples(BUS, EVENT_TYPE, st.booleans())
EMISSION = st.tuples(
    st.sampled_from(["emit", "emit_tx", "emit_failure"]),
    BUS,
    EVENT_TYPE,
    st.sampled_from(CODES),
    st.one_of(st.none(), st.integers(min_value=0, max_value=3)),
)
STEP = st.one_of(
    st.tuples(st.just("subscribe"), TYPED_SUBSCRIPTION),
    # All-events listeners join the root after the pipes exist — where the
    # group's observer subscribes in a real deployment.
    st.tuples(st.just("subscribe-root"), st.booleans()),
    st.tuples(st.just("unsubscribe"), st.integers(min_value=0, max_value=30)),
    st.tuples(st.just("emit"), EMISSION),
)


def make_tx(number: int, code, channel) -> Transaction:
    tx = Transaction(
        tx_id=f"tx-{number}", client_name="client-0", chaincode_name="EHR", function="f"
    )
    tx.validation_code = code
    tx.block_number = 4
    tx.conflicting_block = 4 if number % 2 else 3
    tx.channel = channel
    return tx


def run_program(bus_class, depth, before, steps) -> Tuple[list, list]:
    """Run one program on a chain of ``depth`` buses; return (deliveries, counts)."""
    buses = [bus_class() for _ in range(depth)]
    deliveries: list = []
    registered: List[Tuple[int, Optional[LifecycleEventType], object]] = []

    def subscribe(bus_index, event_type, removes_itself):
        bus_index %= depth
        name = len(registered)

        def listener(event):
            deliveries.append((name, event))
            if removes_itself:
                buses[bus_index].unsubscribe(event_type, listener)

        registered.append((bus_index, event_type, listener))
        buses[bus_index].subscribe(event_type, listener)

    for subscription in before:
        subscribe(*subscription)
    for child, parent in zip(buses, buses[1:]):
        child.pipe_to(parent)
    for number, (kind, payload) in enumerate(steps):
        if kind == "subscribe":
            subscribe(*payload)
        elif kind == "subscribe-root":
            subscribe(depth - 1, None, payload)
        elif kind == "unsubscribe":
            if registered:
                bus_index, event_type, listener = registered[payload % len(registered)]
                buses[bus_index].unsubscribe(event_type, listener)
        else:
            emitter, bus_index, event_type, code, channel = payload
            bus = buses[bus_index % depth]
            tx = make_tx(number, code, channel)
            time = float(number)
            if emitter == "emit":
                bus.emit(LifecycleEvent(type=event_type, time=time, transaction=tx))
            elif emitter == "emit_tx":
                bus.emit_tx(event_type, time, tx)
            else:
                bus.emit_failure(event_type, time, tx)
    counts = [[bus.count(event_type) for event_type in _EVENT_TYPES] for bus in buses]
    return deliveries, counts


def described(deliveries: list) -> list:
    """Deliveries as comparable data; events numbered by object identity, so
    one event object handed along a chain reads the same on both buses."""
    numbers: Dict[int, int] = {}
    return [
        (
            name,
            numbers.setdefault(id(event), len(numbers)),
            event.type,
            event.time,
            event.transaction.tx_id,
            event.failure_type,
            event.channel,
        )
        for name, event in deliveries
    ]


@settings(max_examples=300, deadline=None)
@given(
    depth=st.integers(min_value=1, max_value=3),
    before=st.lists(SUBSCRIPTION, max_size=6),
    steps=st.lists(STEP, max_size=25),
)
def test_piped_bus_delivers_and_counts_like_the_listener_pipe(depth, before, steps):
    deliveries, counts = run_program(LifecycleBus, depth, before, steps)
    expected_deliveries, expected_counts = run_program(ReferenceBus, depth, before, steps)
    assert described(deliveries) == described(expected_deliveries)
    assert counts == expected_counts
