"""Span trees: one per transaction attempt, kept as a row and built when read.

The :class:`SpanTracer` handles its channels'
:class:`~repro.lifecycle.events.LifecycleBus` streams — the bus invariant (emission
never touches the simulator or any RNG stream) is what makes tracing free of
side effects: a traced run stays bit-identical to an untraced one.  Stage
intervals come from the timestamps every :class:`~repro.ledger.block.Transaction`
already carries through the Execute-Order-Validate pipeline, and the block-cut
time of the channel's ledger (splitting the ordering queue into block-cut
wait and consensus).  Every one of them is final when the attempt reaches
``COMMITTED`` or ``ABORTED``, so the tracer writes them there and keeps a
row, never the transaction: a :class:`SpanTable` of unboxed columns that
builds each attempt's tree only when it is read.

Stage names are module constants so the exporters, the critical-path analyzer
and the metrics layer agree on one vocabulary:

``endorse``
    client submission → all endorsement responses collected (with one child
    span per endorsing peer, proposal arrival → response completion).
``submit``
    endorsement collected → arrival at the ordering service (client
    processing + network hop).
``2pc-prepare``
    cross-channel attempts only: the two-phase prepare window at the
    coordinator (lock acquisition → partner ack).
``block-wait``
    arrival at the orderer → the block containing the transaction is cut.
``consensus``
    block cut → consensus complete (the transaction is ordered).
``commit``
    ordered → validated and committed (or terminally failed) at the
    reference peer.
"""

from __future__ import annotations

import operator
from array import array
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import lru_cache, partial
from math import isnan
from typing import (
    Callable,
    Dict,
    Hashable,
    ItemsView,
    Iterator,
    List,
    Optional,
    Tuple,
)

from repro.core.failures import failure_type_of
from repro.ledger.block import Transaction
from repro.lifecycle.events import LifecycleBus, LifecycleEventType

STAGE_ENDORSE = "endorse"
STAGE_SUBMIT = "submit"
STAGE_PREPARE = "2pc-prepare"
STAGE_BLOCK_WAIT = "block-wait"
STAGE_CONSENSUS = "consensus"
STAGE_COMMIT = "commit"

#: Every lifecycle stage, in pipeline order.
LIFECYCLE_STAGES = (
    STAGE_ENDORSE,
    STAGE_SUBMIT,
    STAGE_PREPARE,
    STAGE_BLOCK_WAIT,
    STAGE_CONSENSUS,
    STAGE_COMMIT,
)

#: Span categories: the root of an attempt, a lifecycle stage, one peer's leg.
CATEGORY_TX = "tx"
CATEGORY_STAGE = "stage"
CATEGORY_PEER = "peer"

#: ``block number -> cut time`` on one channel (:meth:`Ledger.cut_time
#: <repro.ledger.ledger.Ledger.cut_time>`).
CutTime = Callable[[int], float]


class SpanArgs(Mapping):
    """A read-only ``args`` mapping, safe to share between spans.

    It has no mutator, so an assignment raises :class:`TypeError`; it is
    hashable (a dataclass field may default to it) and pickles as its items.
    """

    __slots__ = ("_items",)

    def __init__(self, *args: object, **kwargs: object) -> None:
        self._items: Dict[str, object] = dict(*args, **kwargs)

    def __getitem__(self, key: str) -> object:
        return self._items[key]

    def __iter__(self) -> Iterator[str]:
        return iter(self._items)

    def __len__(self) -> int:
        return len(self._items)

    def __hash__(self) -> int:
        return hash(frozenset(self._items.items()))

    def __repr__(self) -> str:
        return f"SpanArgs({self._items!r})"

    def __reduce__(self) -> tuple:
        return (SpanArgs, (self._items,))

    def items(self) -> ItemsView[str, object]:
        return self._items.items()


#: The ``args`` of every span that has none.
_NO_ARGS = SpanArgs()


@lru_cache(maxsize=None)
def _peer_args(org: str) -> SpanArgs:
    """The ``args`` of a peer leg: one shared mapping per organization."""
    return SpanArgs(org=org)


@dataclass(slots=True)
class SpanNode:
    """One interval of simulated time, with nested child intervals.

    Plain data (no transaction references), so span trees pickle cheaply
    through the parallel runner and serialize deterministically.  A tree is
    built once, children first, and never grows: ``children`` is a tuple
    (``()`` for a leaf), and a span without ``args`` shares one empty
    read-only mapping instead of owning a dict.
    """

    name: str
    start: float
    end: float
    category: str = CATEGORY_STAGE
    args: Mapping[str, object] = _NO_ARGS
    children: Tuple["SpanNode", ...] = ()

    @property
    def duration(self) -> float:
        """Length of the interval in simulated seconds."""
        return self.end - self.start

    def __reduce__(self) -> tuple:
        # The fields as constructor arguments, under every pickle protocol
        # (the default state of a slotted object is a dict of slot names).
        fields = (self.name, self.start, self.end, self.category, self.args, self.children)
        return (SpanNode, fields)

    def as_dict(self) -> dict:
        """The span tree as nested JSON-serializable data."""
        node: dict = {
            "name": self.name,
            "cat": self.category,
            "start": self.start,
            "end": self.end,
        }
        if self.args:
            node["args"] = dict(self.args)
        if self.children:
            node["children"] = [child.as_dict() for child in self.children]
        return node


def stage_durations(tx: Transaction, block_created_at: Optional[float] = None) -> Dict[str, float]:
    """Per-stage simulated time of one attempt, from its pipeline timestamps.

    Only stages the transaction actually reached appear; ``block_created_at``
    (the cut time of the block that carried the transaction) splits the
    ordering queue into ``block-wait`` and ``consensus``.  Works on any
    recorded transaction, traced or not — the metrics layer uses it for the
    per-stage latency breakdown without tracing enabled.
    """
    stages: Dict[str, float] = {}
    endorsed_at = tx.endorsement_completed_at
    terminal = tx.committed_at
    if endorsed_at is not None:
        stages[STAGE_ENDORSE] = endorsed_at - tx.submitted_at
    elif terminal is not None:
        # Never finished endorsement (watchdog timeout, fail-fast abort): the
        # whole attempt was spent in the endorsement stage.
        stages[STAGE_ENDORSE] = terminal - tx.submitted_at
    arrived_at = tx.arrived_at_orderer_at
    if endorsed_at is not None and arrived_at is not None:
        if tx.prepare_started_at is not None and tx.prepare_completed_at is not None:
            stages[STAGE_SUBMIT] = tx.prepare_started_at - endorsed_at
            stages[STAGE_PREPARE] = tx.prepare_completed_at - tx.prepare_started_at
        else:
            stages[STAGE_SUBMIT] = arrived_at - endorsed_at
    ordered_at = tx.ordered_at
    if arrived_at is not None and ordered_at is not None:
        if block_created_at is not None:
            cut_at = max(block_created_at, arrived_at)
            stages[STAGE_BLOCK_WAIT] = cut_at - arrived_at
            stages[STAGE_CONSENSUS] = ordered_at - cut_at
        else:
            stages[STAGE_BLOCK_WAIT] = ordered_at - arrived_at
    if ordered_at is not None and terminal is not None:
        stages[STAGE_COMMIT] = terminal - ordered_at
    return stages


def build_attempt_span(
    tx: Transaction,
    status: str,
    failure: Optional[str],
    end_time: float,
    block_created_at: Optional[float] = None,
) -> SpanNode:
    """Materialize the span tree of one transaction attempt.

    The root covers the whole attempt; children are the lifecycle stages the
    attempt reached, and the endorsement stage nests one span per endorsing
    peer (proposal arrival → response completion).  Retry lineage and
    cross-channel linkage travel in the root's ``args`` (``origin_tx_id``,
    ``attempt``, ``partner_channel``), so consumers can join attempts of the
    same logical request across the trace.  The tree is the one a
    :class:`SpanTable` row of the attempt reads back as.
    """
    table = SpanTable()
    table._fill(table._open_row(), tx, status, failure, end_time, block_created_at)
    return table[0]


#: ``None`` in a time field: every simulated time is finite.
_NAN = float("nan")
#: ``None`` in an integer field: channels, blocks and table indices are >= 0.
_NONE = -1

#: A row's times: submitted, endorsement completed, prepare started, prepare
#: completed, arrived at the orderer, ordered, end, its block's cut time.
_TIMES = 8
#: Where a row's submission and end times sit among its times.
_SUBMITTED, _END = 0, 6
#: A row's integers: attempt; the indices of client, function, status,
#: failure type and validation code in the names; channel, partner channel,
#: block; its first peer leg and its number of peer legs.
_INTS = 11
#: Where a row's status index and its number of peer legs sit among its integers.
_STATUS, _LEGS = 3, 10
_BLANK_TIMES = array("d", [_NAN]) * _TIMES
_BLANK_INTS = array("i", [_NONE]) * _INTS


def _stages(times: Sequence[float], legs: int) -> List[Tuple[str, float, float]]:
    """The stages a row's attempt reached, as ``(name, start, end)`` in pipeline order.

    ``times`` are the row's times, ``legs`` its number of peer legs.
    """
    submitted, endorsed, prepare_started, prepare_completed, arrived, ordered, end, cut = times
    stages: List[Tuple[str, float, float]] = []
    if not isnan(endorsed) or legs or end > submitted:
        # An attempt that died before any endorsement came back spent its
        # whole life in the endorsement stage.
        stages.append((STAGE_ENDORSE, submitted, end if isnan(endorsed) else endorsed))
    if not isnan(endorsed) and not isnan(arrived):
        if not isnan(prepare_started) and not isnan(prepare_completed):
            stages.append((STAGE_SUBMIT, endorsed, prepare_started))
            stages.append((STAGE_PREPARE, prepare_started, prepare_completed))
        else:
            stages.append((STAGE_SUBMIT, endorsed, arrived))
    if not isnan(arrived) and not isnan(ordered):
        if not isnan(cut):
            cut_at = max(cut, arrived)
            stages.append((STAGE_BLOCK_WAIT, arrived, cut_at))
            stages.append((STAGE_CONSENSUS, cut_at, ordered))
        else:
            stages.append((STAGE_BLOCK_WAIT, arrived, ordered))
    if not isnan(ordered):
        stages.append((STAGE_COMMIT, ordered, end))
    return stages


class _Interned(dict):
    """Distinct values in first-seen order: a row stores an index, the table each value once.

    ``interned[value]`` is the value's index, a new one on a miss.
    """

    __slots__ = ("values",)

    def __init__(self, values: Sequence[Hashable] = ()) -> None:
        super().__init__((value, index) for index, value in enumerate(values))
        self.values: List[Hashable] = list(values)

    def __missing__(self, value: Hashable) -> int:
        index = self[value] = len(self.values)
        self.values.append(value)
        return index


class SpanTable(Sequence[SpanNode]):
    """Every attempt of a run, one row each, read back as span trees.

    A row is what :func:`build_attempt_span` reads off a transaction, kept
    unboxed: its times in a shared ``array('d')`` (NaN for ``None``), its
    attempt, channels, block and the indices of its names and codes (client,
    function, status, failure type, validation code, in one intern table) in
    a shared ``array('i')`` (-1 for ``None``), and ``(first, count)`` into
    the peer-leg columns: the leg's ``(peer, org)`` index, its received time
    (submission when the proposal's arrival was not stamped) and its
    completion.  ``tx_id`` and ``origin_tx_id`` stay string references.

    Read-only once filled: indexing and iteration build each tree on demand,
    the floats, ``args`` and child order of the tree the attempt's
    transaction gives, so a tree lives only while it is read.  A table
    pickles as its columns and compares equal by them.
    """

    __slots__ = (
        "_tx_ids",
        "_origins",
        "_times",
        "_ints",
        "_names",
        "_peers",
        "_leg_peer",
        "_leg_received",
        "_leg_completed",
    )

    def __init__(self) -> None:
        self._tx_ids: List[Optional[str]] = []
        self._origins: List[Optional[str]] = []
        self._times = array("d")
        self._ints = array("i")
        self._names = _Interned()
        #: ``(peer name, org name)`` of each peer leg.
        self._peers = _Interned()
        self._leg_peer = array("i")
        self._leg_received = array("d")
        self._leg_completed = array("d")

    # ------------------------------------------------------------------ rows
    def _open_row(self) -> int:
        """Slot a row for an attempt that has just been submitted."""
        row = len(self._tx_ids)
        self._tx_ids.append(None)
        self._origins.append(None)
        self._times.extend(_BLANK_TIMES)
        self._ints.extend(_BLANK_INTS)
        return row

    def _fill(
        self,
        row: int,
        tx: Transaction,
        status: str,
        failure: Optional[str],
        end: float,
        block_created_at: Optional[float],
    ) -> None:
        """Write the ended attempt ``tx`` into its slotted ``row``."""
        submitted = tx.submitted_at
        leg_peer = self._leg_peer
        first_leg = len(leg_peer)
        if tx.endorsement_count:
            peer, received_at, completed_at = self._peers, self._leg_received, self._leg_completed
            for response in tx.endorsements:
                received = response.received_at
                leg_peer.append(peer[response.peer_name, response.org_name])
                received_at.append(submitted if received is None else received)
                completed_at.append(response.completed_at)
        endorsed = tx.endorsement_completed_at
        prepare_started = tx.prepare_started_at
        prepare_completed = tx.prepare_completed_at
        arrived = tx.arrived_at_orderer_at
        ordered = tx.ordered_at
        start = row * _TIMES
        self._times[start : start + _TIMES] = array(
            "d",
            (
                submitted,
                _NAN if endorsed is None else endorsed,
                _NAN if prepare_started is None else prepare_started,
                _NAN if prepare_completed is None else prepare_completed,
                _NAN if arrived is None else arrived,
                _NAN if ordered is None else ordered,
                end,
                _NAN if block_created_at is None else block_created_at,
            ),
        )
        name = self._names
        code = tx.validation_code
        channel = tx.channel
        partner = tx.partner_channel
        block = tx.block_number
        start = row * _INTS
        self._ints[start : start + _INTS] = array(
            "i",
            (
                tx.attempt,
                name[tx.client_name],
                name[tx.function],
                name[status],
                _NONE if failure is None else name[failure],
                _NONE if code is None else name[code.value],
                _NONE if channel is None else channel,
                _NONE if partner is None else partner,
                _NONE if block is None else block,
                first_leg,
                len(leg_peer) - first_leg,
            ),
        )
        self._tx_ids[row] = tx.tx_id
        self._origins[row] = tx.origin_id

    def _row(self, row: int) -> Tuple[array, array]:
        """The times and the integers of ``row``."""
        return (
            self._times[row * _TIMES : (row + 1) * _TIMES],
            self._ints[row * _INTS : (row + 1) * _INTS],
        )

    def _tree(self, row: int) -> SpanNode:
        """The span tree of ``row``: root args, then the stages it reached."""
        times, ints = self._row(row)
        (
            attempt,
            client,
            function,
            status,
            failure,
            code,
            channel,
            partner,
            block,
            first_leg,
            legs,
        ) = ints
        names = self._names.values
        args: Dict[str, object] = {
            "tx_id": self._tx_ids[row],
            "origin_tx_id": self._origins[row],
            "attempt": attempt,
            "client": names[client],
            "function": names[function],
            "status": names[status],
        }
        if failure != _NONE:
            args["failure_type"] = names[failure]
        if channel != _NONE:
            args["channel"] = channel
        if partner != _NONE:
            args["partner_channel"] = partner
        if block != _NONE:
            args["block"] = block
        if code != _NONE:
            args["validation_code"] = names[code]

        stages: List[SpanNode] = []
        for name, start, end in _stages(times, legs):
            if name == STAGE_ENDORSE:
                stages.append(SpanNode(name, start, end, children=self._legs(first_leg, legs)))
            elif name == STAGE_PREPARE:
                partner_channel = None if partner == _NONE else partner
                stages.append(SpanNode(name, start, end, args={"partner_channel": partner_channel}))
            else:
                stages.append(SpanNode(name, start, end))
        return SpanNode(
            CATEGORY_TX, times[_SUBMITTED], times[_END], CATEGORY_TX, args, tuple(stages)
        )

    def _legs(self, first: int, count: int) -> Tuple[SpanNode, ...]:
        """The peer legs ``first`` to ``first + count``: one span per endorsing peer."""
        peers = self._peers.values
        leg_peer, received, completed = self._leg_peer, self._leg_received, self._leg_completed
        legs = []
        for leg in range(first, first + count):
            peer, org = peers[leg_peer[leg]]
            span = SpanNode(peer, received[leg], completed[leg], CATEGORY_PEER, _peer_args(org))
            legs.append(span)
        return tuple(legs)

    def committed_stage_durations(self) -> Iterator[Tuple[float, Dict[str, float]]]:
        """``(latency, {stage: duration})`` of each committed attempt, in row order.

        What the critical-path analyzer reads off each committed tree's root
        and stage children, read off the columns: no tree is built.
        """
        committed = self._names.get("committed")
        if committed is None:
            return
        for row in range(len(self)):
            times, ints = self._row(row)
            if ints[_STATUS] != committed:
                continue
            stages = {name: end - start for name, start, end in _stages(times, ints[_LEGS])}
            yield times[_END] - times[_SUBMITTED], stages

    # ------------------------------------------------------------- sequence
    def __len__(self) -> int:
        return len(self._tx_ids)

    def __getitem__(self, index: int) -> SpanNode:
        rows = len(self)
        row = operator.index(index)
        if row < 0:
            row += rows
        if not 0 <= row < rows:
            raise IndexError(f"span table index {index} out of range for {rows} attempts")
        return self._tree(row)

    def __iter__(self) -> Iterator[SpanNode]:
        for row in range(len(self)):
            yield self._tree(row)

    def __repr__(self) -> str:
        return f"SpanTable({len(self)} attempts)"

    # ------------------------------------------------------ equality, pickle
    def _columns(self) -> tuple:
        return (
            self._tx_ids,
            self._origins,
            self._times,
            self._ints,
            self._names.values,
            self._peers.values,
            self._leg_peer,
            self._leg_received,
            self._leg_completed,
        )

    def _compared(self) -> list:
        # Bytes, not items: a NaN (a ``None`` time) is equal to itself.
        return [
            column.tobytes() if isinstance(column, array) else column
            for column in self._columns()
        ]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanTable):
            return NotImplemented
        return self._compared() == other._compared()

    def __reduce__(self) -> tuple:
        return (SpanTable, (), self._columns())

    def __setstate__(self, columns: tuple) -> None:
        (
            self._tx_ids,
            self._origins,
            self._times,
            self._ints,
            names,
            peers,
            self._leg_peer,
            self._leg_received,
            self._leg_completed,
        ) = columns
        self._names = _Interned(names)
        self._peers = _Interned(peers)


class SpanTracer:
    """Writes one :class:`SpanTable` row per transaction attempt from the lifecycle stream.

    Handles ``SUBMITTED`` (every attempt's first emission), ``COMMITTED``
    and ``ABORTED`` on each bus (one per channel of a group).  ``cut_times``
    are the channels' block cut-time lookups, one per bus in the same order.
    An attempt's row is slotted at submission (submission order is
    deterministic on one clock) and filled at its terminal event, at
    ``tx.committed_at`` and with its block's cut time, which the ledger holds
    from the moment the block is ordered.  The tracer then drops the
    transaction.  Only attempts still in flight when the run stops are
    written at :meth:`finalize`.
    """

    def __init__(self, buses: Sequence[LifecycleBus], cut_times: Sequence[CutTime]) -> None:
        if len(cut_times) != len(buses):
            raise ValueError(
                f"a span tracer needs one cut-time lookup per bus: "
                f"{len(buses)} buses, {len(cut_times)} lookups"
            )
        #: Every attempt's row in submission order; blank while in flight.
        self._table = SpanTable()
        #: In-flight attempt -> its row and its channel's lookup.
        self._live: Dict[Transaction, Tuple[int, CutTime]] = {}
        for bus, cut_time in zip(buses, cut_times):
            bus.handle(LifecycleEventType.SUBMITTED, partial(self._on_submitted, cut_time))
            bus.handle(LifecycleEventType.COMMITTED, self._on_committed)
            bus.handle(LifecycleEventType.ABORTED, self._on_aborted)

    @property
    def attempts(self) -> int:
        """Number of transaction attempts observed so far."""
        return len(self._table)

    def _on_submitted(self, cut_time: CutTime, tx: Transaction) -> None:
        self._live[tx] = (self._table._open_row(), cut_time)

    def _on_committed(self, tx: Transaction) -> None:
        self._write(tx, "committed", None, tx.committed_at)

    def _on_aborted(self, tx: Transaction) -> None:
        failure = failure_type_of(tx)
        self._write(tx, "aborted", failure.value if failure is not None else None, tx.committed_at)

    def _write(self, tx: Transaction, status: str, failure: Optional[str], end: float) -> None:
        """Fill ``tx``'s row and let the transaction go."""
        row, cut_time = self._live.pop(tx)
        block = tx.block_number
        created_at = cut_time(block) if block is not None else None
        self._table._fill(row, tx, status, failure, end, created_at)

    def finalize(self) -> SpanTable:
        """Every attempt's row, in submission order.

        Writes the attempts still in flight (status ``incomplete``, ending
        where they stood) and drops those attempts.
        """
        for tx in list(self._live):
            end = tx.committed_at if tx.committed_at is not None else tx.submitted_at
            self._write(tx, "incomplete", None, end)
        return self._table
