"""Typed transaction lifecycle events and the bus that carries them.

Every transaction travels the Execute-Order-Validate pipeline; the
:class:`LifecycleBus` turns that journey into an explicit, observable event
stream — the shape related work on black-box lifecycle checking treats as
first class.  Components *emit* at well-defined points (client submission,
endorsement collection, block ordering, canonical validation, reference-peer
commit, every early-abort path) and consumers *subscribe* without the
emitting component knowing who listens.  The retry subsystem
(:mod:`repro.lifecycle.retry`) is the first consumer: it resubmits failed
transactions by listening for :attr:`LifecycleEventType.ABORTED`.

Emission is synchronous and never touches the simulator or any RNG stream, so
an idle bus (no subscribers) leaves a run bit-identical to one without the bus
— the invariant behind the golden-record determinism tests.

The bus is on the per-transaction hot path (five to six emissions per
transaction), so dispatch is table-driven: subscription maintains one
pre-merged listener tuple per event type, and the fast-path emitters
(:meth:`LifecycleBus.emit_tx` / :meth:`LifecycleBus.emit_failure`) bump the
event counter and return without constructing a :class:`LifecycleEvent` at
all when an event type has no listeners — the common case in benchmark and
headless runs.

Each channel of a deployment owns one bus (its chain's event stream, as Fabric
gives every channel its own ordering and validation); a consumer of several
channels — a channel group's observer — subscribes on each of them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.failures import FailureType, failure_type_of
from repro.ledger.block import Transaction


class LifecycleEventType(enum.Enum):
    """The observable stages of a transaction's life."""

    #: A client sent the proposal to the endorsing peers (every attempt).
    SUBMITTED = "submitted"
    #: All endorsement responses were collected and their read sets agree.
    ENDORSED = "endorsed"
    #: All endorsement responses were collected but their read sets disagree
    #: (the transaction is doomed to fail VSCC).
    ENDORSEMENT_FAILED = "endorsement_failed"
    #: The transaction left the ordering service inside a block.
    ORDERED = "ordered"
    #: Canonical validation assigned the transaction its validation code.
    VALIDATED = "validated"
    #: The reference peer committed the transaction as VALID (or the client
    #: answered a read-only query locally).
    COMMITTED = "committed"
    #: The transaction terminally failed — any failure validation code at the
    #: reference peer, or any early-abort path that never reaches a block.
    ABORTED = "aborted"


#: Declaration-order tuple of the event types; the bus stores its dispatch
#: table and counters in flat lists indexed by each member's ``_bus_index``
#: (assigned below).  ``Enum.__hash__`` is a Python-level call, so indexing a
#: list by a cached int is measurably cheaper than a dict lookup on the
#: five-to-six-emissions-per-transaction hot path.
_EVENT_TYPES: Tuple["LifecycleEventType", ...] = tuple(LifecycleEventType)
for _index, _event_type in enumerate(_EVENT_TYPES):
    _event_type._bus_index = _index
del _index, _event_type


@dataclass(frozen=True, slots=True)
class LifecycleEvent:
    """One stage transition of one transaction."""

    type: LifecycleEventType
    time: float
    transaction: Transaction
    #: Failure class for ABORTED (and failed VALIDATED) events.
    failure_type: Optional[FailureType] = None
    #: Channel index for multi-channel runs (``None`` on the classic path).
    channel: Optional[int] = None

    @property
    def attempt(self) -> int:
        """Resubmission attempt of the transaction (0 = first submission)."""
        return self.transaction.attempt


#: A subscriber callback.
LifecycleListener = Callable[[LifecycleEvent], None]
#: A handler handed the transaction itself (see :meth:`LifecycleBus.handle`).
TransactionHandler = Callable[[Transaction], None]


def emit_event(
    bus: Optional["LifecycleBus"],
    event_type: LifecycleEventType,
    time: float,
    tx: Transaction,
    failure_type: Optional[FailureType] = None,
) -> None:
    """Emit one event for ``tx`` on ``bus`` (no-op without a bus).

    The single emission helper behind every component: it stamps the
    transaction's channel so emitters never have to, and keeps the event
    shape in one place.  Delegates to the bus's :meth:`LifecycleBus.emit_tx`
    fast path, so no event object is built when nobody listens.
    """
    if bus is not None:
        bus.emit_tx(event_type, time, tx, failure_type)


class LifecycleBus:
    """Synchronous pub/sub channel for :class:`LifecycleEvent` streams.

    Subscribers register for one event type or for all events; ``emit``
    invokes them inline, in subscription order, on the emitter's stack.  The
    bus also counts events per type, which :class:`~repro.network.network.RunRecord`
    snapshots for observability and tests.

    Dispatch is pre-resolved: every (un)subscription rebuilds one immutable
    listener tuple per event type (type-specific listeners first, then the
    all-event listeners, each group in subscription order).  Emission indexes
    that table and iterates the tuple directly — the tuple doubles as the
    iteration snapshot, so listeners may unsubscribe mid-delivery without
    disturbing the in-flight emission.

    The channel's own bookkeeping — its tally and, when the chain is
    recorded, its recorder — does not listen: it registers *handlers*
    (:meth:`handle`), handed the transaction before any listener and without
    an event object, so an unobserved run still builds none.
    """

    __slots__ = ("_listeners", "_all_listeners", "_dispatch", "_counts", "_handlers")

    def __init__(self) -> None:
        self._listeners: Dict[LifecycleEventType, List[LifecycleListener]] = {}
        self._all_listeners: List[LifecycleListener] = []
        self._dispatch: List[Tuple[LifecycleListener, ...]] = [()] * len(_EVENT_TYPES)
        self._counts: List[int] = [0] * len(_EVENT_TYPES)
        self._handlers: List[Tuple[TransactionHandler, ...]] = [()] * len(_EVENT_TYPES)

    @property
    def counts(self) -> Dict[LifecycleEventType, int]:
        """Per-type emission counts (types emitted at least once only)."""
        return {
            event_type: count
            for event_type, count in zip(_EVENT_TYPES, self._counts)
            if count
        }

    # ---------------------------------------------------------- subscription
    def subscribe(
        self, event_type: Optional[LifecycleEventType], listener: LifecycleListener
    ) -> None:
        """Register ``listener`` for one event type (or all when ``None``)."""
        if event_type is None:
            self._all_listeners.append(listener)
        else:
            self._listeners.setdefault(event_type, []).append(listener)
        self._rebuild_dispatch()

    def unsubscribe(
        self, event_type: Optional[LifecycleEventType], listener: LifecycleListener
    ) -> None:
        """Remove a previously registered listener (no-op when absent)."""
        listeners = self._all_listeners if event_type is None else self._listeners.get(event_type, [])
        if listener in listeners:
            listeners.remove(listener)
        self._rebuild_dispatch()

    def handle(self, event_type: LifecycleEventType, handler: TransactionHandler) -> None:
        """Hand ``handler`` the transaction of every ``event_type`` emission.

        Handlers run in registration order, before the listeners; they stay
        for the bus's lifetime.
        """
        index = event_type._bus_index
        self._handlers[index] += (handler,)

    def _rebuild_dispatch(self) -> None:
        all_listeners = tuple(self._all_listeners)
        listeners = self._listeners
        self._dispatch = [
            tuple(listeners.get(event_type, ())) + all_listeners
            for event_type in _EVENT_TYPES
        ]

    # -------------------------------------------------------------- emission
    def emit(self, event: LifecycleEvent) -> None:
        """Deliver ``event`` to every matching subscriber, synchronously."""
        index = event.type._bus_index
        self._counts[index] += 1
        for handler in self._handlers[index]:
            handler(event.transaction)
        for listener in self._dispatch[index]:
            listener(event)

    def emit_tx(
        self,
        event_type: LifecycleEventType,
        time: float,
        tx: Transaction,
        failure_type: Optional[FailureType] = None,
    ) -> None:
        """Count and deliver one stage transition of ``tx``.

        The hot-path emitter: when nobody listens for ``event_type`` only the
        counter is bumped and no :class:`LifecycleEvent` is allocated.
        """
        index = event_type._bus_index
        self._counts[index] += 1
        for handler in self._handlers[index]:
            handler(tx)
        listeners = self._dispatch[index]
        if listeners:
            event = LifecycleEvent(
                type=event_type,
                time=time,
                transaction=tx,
                failure_type=failure_type,
                channel=tx.channel,
            )
            for listener in listeners:
                listener(event)

    def emit_failure(
        self, event_type: LifecycleEventType, time: float, tx: Transaction
    ) -> None:
        """Like :meth:`emit_tx`, deriving the failure class from ``tx``.

        :func:`failure_type_of` is only evaluated when a listener will
        actually see the event, which keeps the abort and validation paths
        free of per-transaction classification work on an idle bus.
        """
        index = event_type._bus_index
        self._counts[index] += 1
        for handler in self._handlers[index]:
            handler(tx)
        listeners = self._dispatch[index]
        if listeners:
            event = LifecycleEvent(
                type=event_type,
                time=time,
                transaction=tx,
                failure_type=failure_type_of(tx),
                channel=tx.channel,
            )
            for listener in listeners:
                listener(event)

    # ------------------------------------------------------------ inspection
    def count(self, event_type: LifecycleEventType) -> int:
        """Number of events of ``event_type`` emitted so far."""
        return self._counts[event_type._bus_index]

    def counts_by_name(self) -> Dict[str, int]:
        """Event counts keyed by the event-type value (JSON-friendly)."""
        return {event_type.value: count for event_type, count in sorted(
            self.counts.items(), key=lambda pair: pair[0].value
        )}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"LifecycleBus(counts={self.counts_by_name()})"
