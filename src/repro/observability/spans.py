"""Span trees: one per transaction attempt, built when the attempt ends.

The :class:`SpanTracer` handles its channels'
:class:`~repro.lifecycle.events.LifecycleBus` streams — the bus invariant (emission
never touches the simulator or any RNG stream) is what makes tracing free of
side effects: a traced run stays bit-identical to an untraced one.  Stage
intervals come from the timestamps every :class:`~repro.ledger.block.Transaction`
already carries through the Execute-Order-Validate pipeline, and the block-cut
time of the channel's ledger (splitting the ordering queue into block-cut
wait and consensus).  Every one of them is final when the attempt reaches
``COMMITTED`` or ``ABORTED``, so its tree is built there and the tracer keeps
the tree, never the transaction.

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

from collections.abc import Mapping
from dataclasses import dataclass
from functools import lru_cache, partial
from typing import Callable, Dict, ItemsView, Iterator, List, Optional, Sequence, Tuple

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
    same logical request across the trace.
    """
    args: Dict[str, object] = {
        "tx_id": tx.tx_id,
        "origin_tx_id": tx.origin_id,
        "attempt": tx.attempt,
        "client": tx.client_name,
        "function": tx.function,
        "status": status,
    }
    if failure is not None:
        args["failure_type"] = failure
    if tx.channel is not None:
        args["channel"] = tx.channel
    if tx.partner_channel is not None:
        args["partner_channel"] = tx.partner_channel
    if tx.block_number is not None:
        args["block"] = tx.block_number
    if tx.validation_code is not None:
        args["validation_code"] = tx.validation_code.value

    submitted_at = tx.submitted_at
    stages: List[SpanNode] = []
    endorsed_at = tx.endorsement_completed_at
    endorsements = tx.endorsements
    if endorsed_at is not None or endorsements:
        peers = tuple(
            [
                SpanNode(
                    response.peer_name,
                    submitted_at if response.received_at is None else response.received_at,
                    response.completed_at,
                    CATEGORY_PEER,
                    _peer_args(response.org_name),
                )
                for response in endorsements
            ]
        )
        endorse_end = endorsed_at if endorsed_at is not None else end_time
        stages.append(SpanNode(STAGE_ENDORSE, submitted_at, endorse_end, children=peers))
    elif end_time > submitted_at:
        # The attempt died before any endorsement came back.
        stages.append(SpanNode(STAGE_ENDORSE, submitted_at, end_time))

    arrived_at = tx.arrived_at_orderer_at
    if endorsed_at is not None and arrived_at is not None:
        if tx.prepare_started_at is not None and tx.prepare_completed_at is not None:
            stages.append(SpanNode(STAGE_SUBMIT, endorsed_at, tx.prepare_started_at))
            stages.append(
                SpanNode(
                    STAGE_PREPARE,
                    tx.prepare_started_at,
                    tx.prepare_completed_at,
                    args={"partner_channel": tx.partner_channel},
                )
            )
        else:
            stages.append(SpanNode(STAGE_SUBMIT, endorsed_at, arrived_at))
    ordered_at = tx.ordered_at
    if arrived_at is not None and ordered_at is not None:
        if block_created_at is not None:
            cut_at = max(block_created_at, arrived_at)
            stages.append(SpanNode(STAGE_BLOCK_WAIT, arrived_at, cut_at))
            stages.append(SpanNode(STAGE_CONSENSUS, cut_at, ordered_at))
        else:
            stages.append(SpanNode(STAGE_BLOCK_WAIT, arrived_at, ordered_at))
    if ordered_at is not None:
        stages.append(SpanNode(STAGE_COMMIT, ordered_at, end_time))
    return SpanNode(CATEGORY_TX, submitted_at, end_time, CATEGORY_TX, args, tuple(stages))


class SpanTracer:
    """Builds one span tree per transaction attempt from the lifecycle stream.

    Handles ``SUBMITTED`` (every attempt's first emission), ``COMMITTED``
    and ``ABORTED`` on each bus (one per channel of a group).  ``cut_times``
    are the channels' block cut-time lookups, one per bus in the same order.
    An attempt's slot is taken at submission (submission order is
    deterministic on one clock); its tree is built at its terminal event, at
    ``tx.committed_at`` and with its block's cut time, which the ledger holds
    from the moment the block is ordered.  The tracer then drops the
    transaction.  Only attempts still in flight when the run stops are built
    at :meth:`finalize`.
    """

    def __init__(self, buses: Sequence[LifecycleBus], cut_times: Sequence[CutTime]) -> None:
        if len(cut_times) != len(buses):
            raise ValueError(
                f"a span tracer needs one cut-time lookup per bus: "
                f"{len(buses)} buses, {len(cut_times)} lookups"
            )
        #: Every attempt's tree in submission order; ``None`` while in flight.
        self._spans: List[Optional[SpanNode]] = []
        #: In-flight attempt -> its slot in ``_spans`` and its channel's lookup.
        self._live: Dict[Transaction, Tuple[int, CutTime]] = {}
        for bus, cut_time in zip(buses, cut_times):
            bus.handle(LifecycleEventType.SUBMITTED, partial(self._on_submitted, cut_time))
            bus.handle(LifecycleEventType.COMMITTED, self._on_committed)
            bus.handle(LifecycleEventType.ABORTED, self._on_aborted)

    @property
    def attempts(self) -> int:
        """Number of transaction attempts observed so far."""
        return len(self._spans)

    def _on_submitted(self, cut_time: CutTime, tx: Transaction) -> None:
        self._live[tx] = (len(self._spans), cut_time)
        self._spans.append(None)

    def _on_committed(self, tx: Transaction) -> None:
        self._build(tx, "committed", None, tx.committed_at)

    def _on_aborted(self, tx: Transaction) -> None:
        failure = failure_type_of(tx)
        self._build(tx, "aborted", failure.value if failure is not None else None, tx.committed_at)

    def _build(self, tx: Transaction, status: str, failure: Optional[str], end: float) -> None:
        """Build ``tx``'s tree into its slot and let the transaction go."""
        slot, cut_time = self._live.pop(tx)
        block = tx.block_number
        created_at = cut_time(block) if block is not None else None
        self._spans[slot] = build_attempt_span(tx, status, failure, end, created_at)

    def finalize(self) -> List[SpanNode]:
        """Every attempt's span tree, in submission order.

        Builds the trees of the attempts still in flight (status
        ``incomplete``, ending where they stood) and drops those attempts.
        """
        for tx in list(self._live):
            end = tx.committed_at if tx.committed_at is not None else tx.submitted_at
            self._build(tx, "incomplete", None, end)
        return self._spans
