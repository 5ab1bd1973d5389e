"""Span trees: one per transaction attempt, built from the lifecycle stream.

The :class:`SpanTracer` handles its channels'
:class:`~repro.lifecycle.events.LifecycleBus` streams — the bus invariant (emission
never touches the simulator or any RNG stream) is what makes tracing free of
side effects: a traced run stays bit-identical to an untraced one.  Stage
intervals come from the timestamps every :class:`~repro.ledger.block.Transaction`
already carries through the Execute-Order-Validate pipeline, refined post-run
with the block-cut times of the ledger (splitting the ordering queue into
block-cut wait and consensus).

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

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

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

#: ``channel -> block number -> block cut time`` (``None`` keys the classic
#: single-channel path, where transactions carry no channel index).
BlockTimes = Dict[Optional[int], Dict[int, float]]


@dataclass
class SpanNode:
    """One interval of simulated time, with nested child intervals.

    Plain data (no transaction references), so span trees pickle cheaply
    through the parallel runner and serialize deterministically.
    """

    name: str
    start: float
    end: float
    category: str = CATEGORY_STAGE
    args: Dict[str, object] = field(default_factory=dict)
    children: List["SpanNode"] = field(default_factory=list)

    @property
    def duration(self) -> float:
        """Length of the interval in simulated seconds."""
        return self.end - self.start

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
    root = SpanNode(
        name=CATEGORY_TX,
        start=tx.submitted_at,
        end=end_time,
        category=CATEGORY_TX,
        args=args,
    )

    endorsed_at = tx.endorsement_completed_at
    if endorsed_at is not None or tx.endorsements:
        endorse_end = endorsed_at if endorsed_at is not None else end_time
        endorse = SpanNode(STAGE_ENDORSE, tx.submitted_at, endorse_end)
        for response in tx.endorsements:
            received = response.received_at if response.received_at is not None else tx.submitted_at
            endorse.children.append(
                SpanNode(
                    name=response.peer_name,
                    start=received,
                    end=response.completed_at,
                    category=CATEGORY_PEER,
                    args={"org": response.org_name},
                )
            )
        root.children.append(endorse)
    elif end_time > tx.submitted_at:
        # The attempt died before any endorsement came back.
        root.children.append(SpanNode(STAGE_ENDORSE, tx.submitted_at, end_time))

    arrived_at = tx.arrived_at_orderer_at
    if endorsed_at is not None and arrived_at is not None:
        if tx.prepare_started_at is not None and tx.prepare_completed_at is not None:
            root.children.append(SpanNode(STAGE_SUBMIT, endorsed_at, tx.prepare_started_at))
            root.children.append(
                SpanNode(
                    STAGE_PREPARE,
                    tx.prepare_started_at,
                    tx.prepare_completed_at,
                    args={"partner_channel": tx.partner_channel},
                )
            )
        else:
            root.children.append(SpanNode(STAGE_SUBMIT, endorsed_at, arrived_at))
    ordered_at = tx.ordered_at
    if arrived_at is not None and ordered_at is not None:
        if block_created_at is not None:
            cut_at = max(block_created_at, arrived_at)
            root.children.append(SpanNode(STAGE_BLOCK_WAIT, arrived_at, cut_at))
            root.children.append(SpanNode(STAGE_CONSENSUS, cut_at, ordered_at))
        else:
            root.children.append(SpanNode(STAGE_BLOCK_WAIT, arrived_at, ordered_at))
    if ordered_at is not None:
        root.children.append(SpanNode(STAGE_COMMIT, ordered_at, end_time))
    return root


class SpanTracer:
    """Builds one span tree per transaction attempt from the lifecycle stream.

    Handles ``SUBMITTED`` (every attempt's first emission), ``COMMITTED``
    and ``ABORTED`` on each bus (one per channel of a group); records which
    attempts exist (in submission order, which is deterministic on one
    clock) and how each terminated, at ``tx.committed_at``.
    The trees themselves are materialized once at :meth:`finalize`, when the
    ledgers' block-cut times are available for the block-wait split.
    """

    def __init__(self, buses: Sequence[LifecycleBus]) -> None:
        self._attempts: Dict[str, dict] = {}
        self._order: List[str] = []
        for bus in buses:
            bus.handle(LifecycleEventType.SUBMITTED, self._on_submitted)
            bus.handle(LifecycleEventType.COMMITTED, self._on_committed)
            bus.handle(LifecycleEventType.ABORTED, self._on_aborted)

    @property
    def attempts(self) -> int:
        """Number of transaction attempts observed so far."""
        return len(self._order)

    def _on_submitted(self, tx: Transaction) -> None:
        self._attempts[tx.tx_id] = {"tx": tx, "status": None, "failure": None, "end": None}
        self._order.append(tx.tx_id)

    def _on_committed(self, tx: Transaction) -> None:
        entry = self._attempts[tx.tx_id]
        entry["status"] = "committed"
        entry["end"] = tx.committed_at

    def _on_aborted(self, tx: Transaction) -> None:
        entry = self._attempts[tx.tx_id]
        entry["status"] = "aborted"
        entry["end"] = tx.committed_at
        failure = failure_type_of(tx)
        if failure is not None:
            entry["failure"] = failure.value

    def finalize(self, block_times: Optional[BlockTimes] = None) -> List[SpanNode]:
        """Materialize every attempt's span tree, in submission order."""
        block_times = block_times or {}
        roots: List[SpanNode] = []
        for tx_id in self._order:
            entry = self._attempts[tx_id]
            tx: Transaction = entry["tx"]
            end = entry["end"]
            status = entry["status"]
            if end is None:
                # Never terminated (e.g. still pending when the run stopped).
                end = tx.committed_at if tx.committed_at is not None else tx.submitted_at
                status = status or "incomplete"
            created_at = None
            if tx.block_number is not None:
                created_at = block_times.get(tx.channel, {}).get(tx.block_number)
            roots.append(build_attempt_span(tx, status, entry["failure"], end, created_at))
        return roots
