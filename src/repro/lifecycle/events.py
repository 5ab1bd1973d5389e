"""Typed transaction lifecycle events and the bus that carries them.

Every transaction travels the Execute-Order-Validate pipeline; the
:class:`LifecycleBus` turns that journey into an explicit, observable stream
of stage transitions.  Components *emit* at well-defined points (client
submission, endorsement collection, block ordering, canonical validation,
reference-peer commit, every early-abort path) and consumers *handle* the
types they need without the emitting component knowing who listens.

There is one way to listen: :meth:`LifecycleBus.handle` registers a handler
for one event type, and every emission hands it the transaction itself.  What
a consumer needs beyond the type is on the transaction: its channel
(``tx.channel``, stamped by the client that built the attempt; ``None`` on a
one-channel deployment), its failure class
(:func:`failure_type_of`) and, at a ``COMMITTED`` or ``ABORTED`` emission,
its end time (``tx.committed_at``, stamped with the simulator's clock before
every terminal emission).

Emission is synchronous and never touches the simulator or any RNG stream, so
a bus only the channel's own bookkeeping listens to leaves a run
bit-identical to one without the bus — the invariant behind the
golden-record determinism tests.

Each channel of a deployment owns one bus (its chain's event stream, as Fabric
gives every channel its own ordering and validation); a consumer of several
channels — a channel group's observer — registers on each of them.
"""

from __future__ import annotations

import enum
from typing import Callable, Dict, List, Tuple

from repro.core.failures import failure_type_of
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


#: Declaration-order tuple of the event types; the bus stores its handlers and
#: counters in flat lists indexed by each member's ``_bus_index`` (assigned
#: below).  ``Enum.__hash__`` is a Python-level call, so indexing a list by a
#: cached int is measurably cheaper than a dict lookup on the
#: five-to-six-emissions-per-transaction hot path.
_EVENT_TYPES: Tuple["LifecycleEventType", ...] = tuple(LifecycleEventType)
for _index, _event_type in enumerate(_EVENT_TYPES):
    _event_type._bus_index = _index
del _index, _event_type

#: A handler, handed the transaction of every emission of its event type.
TransactionHandler = Callable[[Transaction], None]


class LifecycleBus:
    """Synchronous dispatch of a channel's stage transitions.

    :meth:`handle` registers a handler for one event type; :meth:`emit`
    counts the emission and calls that type's handlers inline, in
    registration order, on the emitter's stack.  Handlers stay for the bus's
    lifetime.  The per-type counts are what
    :class:`~repro.network.network.RunRecord` snapshots as its
    ``lifecycle_counts``.
    """

    __slots__ = ("_counts", "_handlers")

    def __init__(self) -> None:
        self._counts: List[int] = [0] * len(_EVENT_TYPES)
        self._handlers: List[Tuple[TransactionHandler, ...]] = [()] * len(_EVENT_TYPES)

    def handle(self, event_type: LifecycleEventType, handler: TransactionHandler) -> None:
        """Hand ``handler`` the transaction of every ``event_type`` emission."""
        self._handlers[event_type._bus_index] += (handler,)

    def emit(self, event_type: LifecycleEventType, tx: Transaction) -> None:
        """Count one ``event_type`` transition of ``tx`` and call its handlers."""
        index = event_type._bus_index
        self._counts[index] += 1
        for handler in self._handlers[index]:
            handler(tx)

    # ------------------------------------------------------------ inspection
    @property
    def counts(self) -> Dict[LifecycleEventType, int]:
        """Per-type emission counts (types emitted at least once only)."""
        return {
            event_type: count
            for event_type, count in zip(_EVENT_TYPES, self._counts)
            if count
        }

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
