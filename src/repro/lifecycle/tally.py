"""The per-channel tally: a run's metrics without its chain.

The paper collects its Section 4.5 metrics "by parsing the blockchain after
each experiment".  Every one of them is a count, a sum or a quantile over the
attempts of the run, so a handler on the channel's
:class:`~repro.lifecycle.events.LifecycleBus` can take what the parse would
read off each attempt when the attempt ends, and the run need not keep the
attempt afterwards.  A :class:`ChannelTally` does that:

* counts update at the event that decides them — ``SUBMITTED`` (attempts,
  read-only attempts), ``VALIDATED`` (what the chain records, failures in
  block order), ``ABORTED`` before any block (early aborts) and the terminal
  ``COMMITTED`` / ``ABORTED`` (logical requests, the last commit);
* the floats the metrics average or take quantiles of — the latency and the
  stage durations (:func:`~repro.observability.spans.stage_durations`) — go
  into a compact row per attempt, and the DB seconds into one column per call
  type.

One stamp can land after the terminal event: a proposal still in flight when
its attempt aborted (a crashed peer, a lost endorsement) is executed on
arrival, and when no earlier proposal of the attempt had executed it stamps
the attempt's first DB-call latencies then.  The parse would read that stamp,
so the endorsing peer reports it (:meth:`ChannelTally.late_stamp`) and it
joins the call columns.

:func:`fold` turns one or more closed tallies into a :class:`Tally`.  Every
number it reports is a statistic of the bag of samples: counts add up, the
latency quantiles are exact (:func:`~repro.sim.stats.quantiles`) and every
mean is exactly rounded (:func:`math.fsum`), so no order of the tallies or of
their rows moves a bit, and the fold concatenates samples as they were kept.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.core.failures import CONFLICT_CODES, FailureType, failure_type_of
from repro.ledger.block import Transaction
from repro.lifecycle.events import LifecycleBus, LifecycleEventType
from repro.observability.spans import LIFECYCLE_STAGES, stage_durations
from repro.sim.stats import mean, percentile, quantiles

#: A row: the latency, then one duration per lifecycle stage; ``nan`` where
#: the attempt has no such sample.
_ROW = 1 + len(LIFECYCLE_STAGES)
_LATENCY = 0
_STAGE_SLOT = {stage: 1 + offset for offset, stage in enumerate(LIFECYCLE_STAGES)}
_EMPTY_ROW = array("d", [math.nan] * _ROW)


@dataclass
class Tally:
    """What the metrics read off a run's attempts, folded (see :func:`fold`)."""

    #: Every attempt, read-only attempts among them and those answered
    #: locally (never submitted for ordering).
    attempts: int = 0
    read_only: int = 0
    skipped: int = 0
    #: Transactions the chain records, and the valid ones among them.
    appended: int = 0
    committed: int = 0
    blocks: int = 0
    #: Failures per class in first-seen order: each chain in block order, then
    #: its early aborts, channel by channel.
    failures: Dict[FailureType, int] = field(default_factory=dict)
    #: Keys of MVCC and phantom conflicts with their counts, most frequent first.
    conflicting_keys: List[Tuple[str, int]] = field(default_factory=list)
    cross_channel_aborted: int = 0
    logical_requests: int = 0
    committed_requests: int = 0
    #: Latest terminal time (0.0 when nothing terminated).
    last_commit: float = 0.0
    average_latency: float = 0.0
    latency_quantiles: Dict[str, float] = field(default_factory=dict)
    function_call_latency_ms: Dict[str, float] = field(default_factory=dict)
    stage_latency: Dict[str, Dict[str, float]] = field(default_factory=dict)


class ChannelTally:
    """One channel's attempts as the metrics need them, kept on the channel bus.

    ``ledger`` is the channel's chain (its block cut times split the ordering
    queue into block wait and consensus).  ``retries`` says whether a failed
    attempt can be resubmitted: only then does an attempt need the logical
    request it belongs to looked up — otherwise each attempt is a request of
    its own.
    :meth:`close` ends the run: it takes the attempts still in flight and
    lets go of every live object, after which the tally is plain picklable
    data.
    """

    def __init__(self, bus: LifecycleBus, ledger, retries: bool = False) -> None:
        self.attempts = 0
        self.read_only = 0
        self.skipped = 0
        self.appended = 0
        self.committed = 0
        self.blocks = 0
        self.in_block: Dict[FailureType, int] = {}
        self.early: Dict[FailureType, int] = {}
        self.conflicting_keys: Dict[str, int] = {}
        self.cross_channel_aborted = 0
        self.last_commit = 0.0
        #: Logical request (first attempt's id) -> whether an attempt committed;
        #: ``None`` when no attempt is ever resubmitted.
        self.requests: Optional[Dict[str, bool]] = {} if retries else None
        self.logical_requests = 0
        self.committed_requests = 0
        #: ``_ROW`` doubles per attempt, in submission order.
        self.rows = array("d")
        #: DB call type -> seconds, one sample per attempt that made it.
        self.calls: Dict[str, array] = {}
        self.ledger = ledger
        #: Attempts between ``SUBMITTED`` and their terminal event -> row.
        self._live: Dict[Transaction, int] = {}
        #: Ids of ended attempts no proposal had executed for yet.
        self._unstamped: Set[str] = set()
        bus.handle(LifecycleEventType.SUBMITTED, self._on_submitted)
        bus.handle(LifecycleEventType.VALIDATED, self._on_validated)
        bus.handle(LifecycleEventType.COMMITTED, self._on_committed)
        bus.handle(LifecycleEventType.ABORTED, self._on_aborted)

    # ---------------------------------------------------------------- events
    def _on_submitted(self, tx: Transaction) -> None:
        row = self.attempts
        self.attempts = row + 1
        self.read_only += tx.read_only
        self._live[tx] = row
        self.rows.extend(_EMPTY_ROW)

    def _on_validated(self, tx: Transaction) -> None:
        self.appended += 1
        if tx.is_committed:
            self.committed += 1
        else:
            self._count_failure(self.in_block, failure_type_of(tx), tx)

    def _on_committed(self, tx: Transaction) -> None:
        # A read-only query answered by the client never reaches validation.
        skipped = tx.validation_code is None
        self.skipped += skipped
        self._end(tx, skipped)

    def _on_aborted(self, tx: Transaction) -> None:
        if tx.block_number is None:
            failure = failure_type_of(tx)
            self._count_failure(self.early, failure, tx)
            if failure is FailureType.CROSS_CHANNEL_ABORT:
                self.cross_channel_aborted += 1
        self._end(tx, False)

    def _count_failure(
        self, counts: Dict[FailureType, int], failure: FailureType, tx: Transaction
    ) -> None:
        counts[failure] = counts.get(failure, 0) + 1
        if tx.validation_code in CONFLICT_CODES:
            keys = self.conflicting_keys
            keys[tx.conflicting_key] = keys.get(tx.conflicting_key, 0) + 1

    def _end(self, tx: Transaction, skipped: bool) -> None:
        row = self._live.pop(tx)
        committed_at = tx.committed_at
        if committed_at > self.last_commit:
            self.last_commit = committed_at
        self.rows[row * _ROW + _LATENCY] = committed_at - tx.submitted_at
        self._take(tx, row, skipped)
        if tx._db_call_latency is None:
            self._unstamped.add(tx.tx_id)

    def late_stamp(self, tx: Transaction) -> None:
        """An ended attempt's first execution: its DB-call latencies join the columns."""
        if tx.tx_id in self._unstamped:
            self._unstamped.remove(tx.tx_id)
            self._add_calls(tx._db_call_latency)

    def _take(self, tx: Transaction, row: int, skipped: bool) -> None:
        """The request, stage and call samples of ``tx`` as they stand now."""
        requests = self.requests
        if requests is not None and not skipped:
            origin = tx.origin_id
            if tx.is_committed:
                requests[origin] = True
            elif origin not in requests:
                requests[origin] = False
        block = tx.block_number
        created_at = self.ledger.cut_time(block) if block is not None else None
        rows = self.rows
        base = row * _ROW
        for stage, duration in stage_durations(tx, created_at).items():
            rows[base + _STAGE_SLOT[stage]] = duration
        if tx._db_call_latency:
            self._add_calls(tx._db_call_latency)

    def _add_calls(self, latency: Dict[str, float]) -> None:
        calls = self.calls
        for operation, seconds in latency.items():
            column = calls.get(operation)
            if column is None:
                column = calls[operation] = array("d")
            column.append(seconds)

    # ------------------------------------------------------------------- end
    def close(self) -> "ChannelTally":
        """End the run: take the attempts still in flight, keep only data."""
        for tx, row in self._live.items():
            self._take(tx, row, False)
        self.blocks = self.ledger.height
        if self.requests is None:
            self.logical_requests = self.attempts - self.skipped
            self.committed_requests = self.committed
        else:
            self.logical_requests = len(self.requests)
            self.committed_requests = sum(self.requests.values())
            self.requests = None
        self.ledger = None
        self._live = {}
        self._unstamped = set()
        return self


def fold(tallies: Sequence[ChannelTally]) -> Tally:
    """Fold closed tallies into one :class:`Tally`.

    Counts add up tally by tally; each sample kind is the concatenation of
    the tallies' samples.  The quantiles are exact and every mean an
    ``fsum``, so the result depends on the bag of samples only: neither the
    order of ``tallies`` nor how the attempts are split among them moves it.
    """

    def samples(slot: int) -> array:
        """One row slot's samples, where the attempt has one."""
        values = chain.from_iterable(tally.rows[slot::_ROW] for tally in tallies)
        return array("d", [value for value in values if value == value])

    latencies = samples(_LATENCY)
    stage_samples = {stage: samples(slot) for stage, slot in _STAGE_SLOT.items()}
    call_latency: Dict[str, float] = {}
    for operation in sorted({operation for tally in tallies for operation in tally.calls}):
        columns = [tally.calls[operation] for tally in tallies if operation in tally.calls]
        total = math.fsum(chain.from_iterable(columns))
        # Mean latency per state-database call type, in milliseconds (Table 4).
        call_latency[operation] = 1000.0 * total / sum(map(len, columns))

    failures: Dict[FailureType, int] = {}
    keys: Dict[str, int] = {}
    for tally in tallies:
        for failure, count in chain(tally.in_block.items(), tally.early.items()):
            failures[failure] = failures.get(failure, 0) + count
        for key, count in tally.conflicting_keys.items():
            keys[key] = keys.get(key, 0) + count
    return Tally(
        attempts=sum(tally.attempts for tally in tallies),
        read_only=sum(tally.read_only for tally in tallies),
        skipped=sum(tally.skipped for tally in tallies),
        appended=sum(tally.appended for tally in tallies),
        committed=sum(tally.committed for tally in tallies),
        blocks=sum(tally.blocks for tally in tallies),
        failures=failures,
        conflicting_keys=sorted(keys.items(), key=lambda pair: (-pair[1], pair[0])),
        cross_channel_aborted=sum(tally.cross_channel_aborted for tally in tallies),
        logical_requests=sum(tally.logical_requests for tally in tallies),
        committed_requests=sum(tally.committed_requests for tally in tallies),
        last_commit=max((tally.last_commit for tally in tallies), default=0.0),
        average_latency=mean(latencies),
        latency_quantiles=quantiles(latencies),
        function_call_latency_ms=call_latency,
        stage_latency={
            stage: {
                "count": float(len(samples)),
                "mean_s": mean(samples),
                "p95_s": percentile(samples, 0.95),
            }
            for stage, samples in stage_samples.items()
            if samples
        },
    )
