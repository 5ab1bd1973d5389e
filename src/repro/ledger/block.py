"""Transactions, endorsement responses, validation codes and blocks.

Transactions carry their whole history through the Execute-Order-Validate
pipeline: the endorsement responses produced in the execution phase, the
read/write set submitted to the ordering service, per-phase timestamps, and the
validation code assigned in the validation phase.  Both valid and failed
transactions are recorded in blocks, exactly as Fabric does, so that the
post-experiment ledger analysis of the paper (Section 4.5: "metrics are
collected by parsing the blockchain after each experiment") can be reproduced.
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.ledger.rwset import ReadWriteSet


class ValidationCode(enum.Enum):
    """Final status of a transaction, mirroring Fabric's validation codes.

    ``VALID`` transactions update the world state; every other code is a
    failure.  ``MVCC_READ_CONFLICT`` and ``PHANTOM_READ_CONFLICT`` correspond to
    Fabric's codes of the same name; ``ENDORSEMENT_POLICY_FAILURE`` is the
    read/write-set-mismatch VSCC failure studied in the paper;
    ``ABORTED_BY_REORDERING`` marks transactions aborted inside the ordering
    phase by Fabric++; ``EARLY_ABORT`` marks transactions aborted before
    ordering by FabricSharp (these never reach a block);
    ``CROSS_CHANNEL_ABORT`` marks cross-channel transactions whose two-phase
    prepare failed at the coordinator (these never reach a block either).

    The three infrastructure codes come from the fault-injection subsystem
    (:mod:`repro.faults`) and also never reach a block:
    ``PEER_UNAVAILABLE`` (a proposal failed fast against a crashed or
    partitioned endorsing peer), ``ENDORSEMENT_TIMEOUT`` (the client's
    endorsement-collection watchdog expired — a response was lost or an
    endorser stalled past the timeout) and ``ORDERER_UNAVAILABLE`` (the
    transaction was submitted during an ordering-service outage window).
    """

    VALID = "VALID"
    ENDORSEMENT_POLICY_FAILURE = "ENDORSEMENT_POLICY_FAILURE"
    MVCC_READ_CONFLICT = "MVCC_READ_CONFLICT"
    PHANTOM_READ_CONFLICT = "PHANTOM_READ_CONFLICT"
    ABORTED_BY_REORDERING = "ABORTED_BY_REORDERING"
    EARLY_ABORT = "EARLY_ABORT"
    CROSS_CHANNEL_ABORT = "CROSS_CHANNEL_ABORT"
    ENDORSEMENT_TIMEOUT = "ENDORSEMENT_TIMEOUT"
    ORDERER_UNAVAILABLE = "ORDERER_UNAVAILABLE"
    PEER_UNAVAILABLE = "PEER_UNAVAILABLE"

    @property
    def is_failure(self) -> bool:
        """True for every code except ``VALID``."""
        return self is not ValidationCode.VALID


class BlockCutReason(enum.Enum):
    """Why the ordering service cut a block (Section 2, ordering phase step 4)."""

    BLOCK_SIZE = "block_size"
    BLOCK_TIMEOUT = "block_timeout"
    MAX_BYTES = "max_bytes"
    STREAMING = "streaming"
    FLUSH = "flush"


@dataclass(slots=True)
class EndorsementResponse:
    """One endorsing peer's response: its signature metadata and read/write set."""

    peer_name: str
    org_name: str
    rwset: ReadWriteSet
    completed_at: float
    #: When the proposal reached the peer (the endorsement leg's start time).
    received_at: Optional[float] = None

    # Pickle state: a tuple of the fields in order (see Transaction).
    def __getstate__(self) -> tuple:
        return (self.peer_name, self.org_name, self.rwset, self.completed_at, self.received_at)

    def __setstate__(self, state: tuple) -> None:
        (self.peer_name, self.org_name, self.rwset, self.completed_at, self.received_at) = state


class TransactionIdAllocator:
    """An isolated transaction-id sequence (one per channel slice).

    Every channel slice owns its allocator, so ids are a function of the run
    — never of what the process ran before.  The sole channel of a
    one-channel deployment uses the bare ``tx`` prefix; in a multi-channel
    deployment every slice has a per-channel prefix (``tx-c<k>-...``), so a
    channel's ids are a function of that channel's *own* submission order —
    not of how the channels' events happen to interleave on a shared clock.
    That locality is what lets the sharded execution path
    (:mod:`repro.channels.network`) run independent channels in separate
    processes and still merge a :class:`~repro.network.network.RunRecord`
    bit-identical to the shared-clock run.
    """

    __slots__ = ("prefix", "_counter", "_format")

    def __init__(self, prefix: str = "tx") -> None:
        self.prefix = prefix
        self._counter = itertools.count()
        # Precomputed printf template: one C-level format call per id instead
        # of f-string assembly (ids are minted once per transaction).
        self._format = (prefix + "-%08d").__mod__

    def __call__(self) -> str:
        """The next identifier of this sequence."""
        return self._format(next(self._counter))


class Transaction:
    """A client transaction and everything recorded about it along the pipeline.

    Deliberately a hand-rolled ``__slots__`` class rather than a dataclass:
    transactions are the single most-allocated pipeline object, and the slots
    layout plus the *lazy* ``endorsements``/``db_call_latency`` containers
    (materialized on first access instead of one fresh list + dict per
    construction) keep per-transaction allocation to the instance itself.
    The constructor keyword surface is unchanged from the former dataclass.
    """

    __slots__ = (
        "tx_id",
        "client_name",
        "chaincode_name",
        "function",
        "args",
        "read_only",
        "channel",
        "partner_channel",
        "attempt",
        "origin_tx_id",
        "submitted_at",
        "_endorsements",
        "rwset",
        "endorsement_mismatch",
        "endorsement_completed_at",
        "prepare_started_at",
        "prepare_completed_at",
        "arrived_at_orderer_at",
        "ordered_at",
        "block_number",
        "tx_index",
        "validation_code",
        "committed_at",
        "conflicting_key",
        "conflicting_block",
        "abort_reason",
        "_db_call_latency",
    )

    def __init__(
        self,
        tx_id: str,
        client_name: str,
        chaincode_name: str,
        function: str,
        args: Tuple[Any, ...] = (),
        read_only: bool = False,
        channel: Optional[int] = None,
        partner_channel: Optional[int] = None,
        attempt: int = 0,
        origin_tx_id: Optional[str] = None,
        submitted_at: float = 0.0,
        endorsements: Optional[List[EndorsementResponse]] = None,
        rwset: Optional[ReadWriteSet] = None,
        endorsement_mismatch: bool = False,
        endorsement_completed_at: Optional[float] = None,
        prepare_started_at: Optional[float] = None,
        prepare_completed_at: Optional[float] = None,
        arrived_at_orderer_at: Optional[float] = None,
        ordered_at: Optional[float] = None,
        block_number: Optional[int] = None,
        tx_index: Optional[int] = None,
        validation_code: Optional[ValidationCode] = None,
        committed_at: Optional[float] = None,
        conflicting_key: Optional[str] = None,
        conflicting_block: Optional[int] = None,
        abort_reason: Optional[str] = None,
        db_call_latency: Optional[Dict[str, float]] = None,
    ) -> None:
        self.tx_id = tx_id
        self.client_name = client_name
        self.chaincode_name = chaincode_name
        self.function = function
        self.args = args
        self.read_only = read_only
        #: Channel the transaction was submitted on (``None`` outside
        #: multi-channel runs); ``partner_channel`` is the second channel of a
        #: cross-channel two-phase prepare/commit.
        self.channel = channel
        self.partner_channel = partner_channel
        #: Resubmission lineage: ``attempt`` counts how many times the same
        #: logical request was already submitted (0 = first submission) and
        #: ``origin_tx_id`` names the first attempt's transaction id (``None``
        #: for first attempts).  Set by :mod:`repro.lifecycle.retry`.
        self.attempt = attempt
        self.origin_tx_id = origin_tx_id

        # Execution phase -------------------------------------------------
        self.submitted_at = submitted_at
        self._endorsements = endorsements
        self.rwset = rwset
        self.endorsement_mismatch = endorsement_mismatch
        self.endorsement_completed_at = endorsement_completed_at

        # Ordering phase ---------------------------------------------------
        self.prepare_started_at = prepare_started_at
        self.prepare_completed_at = prepare_completed_at
        self.arrived_at_orderer_at = arrived_at_orderer_at
        self.ordered_at = ordered_at
        self.block_number = block_number
        self.tx_index = tx_index

        # Validation phase -------------------------------------------------
        self.validation_code = validation_code
        self.committed_at = committed_at
        self.conflicting_key = conflicting_key
        self.conflicting_block = conflicting_block
        self.abort_reason = abort_reason

        # Bookkeeping for per-function latency reporting (Table 4)
        self._db_call_latency = db_call_latency

    # Lazy containers -----------------------------------------------------
    @property
    def endorsements(self) -> List[EndorsementResponse]:
        """Endorsement responses collected so far (materialized on access)."""
        endorsements = self._endorsements
        if endorsements is None:
            endorsements = self._endorsements = []
        return endorsements

    @endorsements.setter
    def endorsements(self, value: List[EndorsementResponse]) -> None:
        self._endorsements = value

    @property
    def endorsement_count(self) -> int:
        """Number of collected endorsements, without materializing the list."""
        endorsements = self._endorsements
        return 0 if endorsements is None else len(endorsements)

    @property
    def db_call_latency(self) -> Dict[str, float]:
        """Per-operation DB latency charged at endorsement (lazy dict)."""
        latency = self._db_call_latency
        if latency is None:
            latency = self._db_call_latency = {}
        return latency

    @db_call_latency.setter
    def db_call_latency(self, value: Dict[str, float]) -> None:
        self._db_call_latency = value

    # Pickle state ----------------------------------------------------------
    # One tuple of every slot, in ``__slots__`` order: what crosses the shard
    # boundary per transaction (and what ``copy`` uses).  The default would be
    # a ``{slot name: value}`` dict per object.  A slot added above must be
    # added to both methods; ``tests/test_transaction_pickle.py`` checks.
    def __getstate__(self) -> tuple:
        return (
            self.tx_id,
            self.client_name,
            self.chaincode_name,
            self.function,
            self.args,
            self.read_only,
            self.channel,
            self.partner_channel,
            self.attempt,
            self.origin_tx_id,
            self.submitted_at,
            self._endorsements,
            self.rwset,
            self.endorsement_mismatch,
            self.endorsement_completed_at,
            self.prepare_started_at,
            self.prepare_completed_at,
            self.arrived_at_orderer_at,
            self.ordered_at,
            self.block_number,
            self.tx_index,
            self.validation_code,
            self.committed_at,
            self.conflicting_key,
            self.conflicting_block,
            self.abort_reason,
            self._db_call_latency,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.tx_id,
            self.client_name,
            self.chaincode_name,
            self.function,
            self.args,
            self.read_only,
            self.channel,
            self.partner_channel,
            self.attempt,
            self.origin_tx_id,
            self.submitted_at,
            self._endorsements,
            self.rwset,
            self.endorsement_mismatch,
            self.endorsement_completed_at,
            self.prepare_started_at,
            self.prepare_completed_at,
            self.arrived_at_orderer_at,
            self.ordered_at,
            self.block_number,
            self.tx_index,
            self.validation_code,
            self.committed_at,
            self.conflicting_key,
            self.conflicting_block,
            self.abort_reason,
            self._db_call_latency,
        ) = state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Transaction(tx_id={self.tx_id!r}, function={self.function!r}, "
            f"validation_code={self.validation_code})"
        )

    @property
    def origin_id(self) -> str:
        """Identifier of the logical client request this attempt belongs to."""
        return self.origin_tx_id or self.tx_id

    @property
    def is_committed(self) -> bool:
        """True when validation succeeded and the write set was applied."""
        return self.validation_code is ValidationCode.VALID

    @property
    def is_failed(self) -> bool:
        """True when the transaction received any failure code."""
        return self.validation_code is not None and self.validation_code.is_failure

    @property
    def total_latency(self) -> Optional[float]:
        """End-to-end latency across all three phases (paper Section 4.5).

        ``None`` until the transaction has been committed (or marked failed) at
        the reference peer.
        """
        if self.committed_at is None:
            return None
        return self.committed_at - self.submitted_at

    def has_range_reads(self) -> bool:
        """True when the endorsement produced at least one range read."""
        return bool(self.rwset is not None and self.rwset.range_reads)

    def estimated_size_bytes(self) -> int:
        """Rough wire size of the transaction, used for the max-bytes block cut."""
        base = 512  # headers, signatures, certificates
        rwset = self.rwset
        if rwset is None:
            return base
        per_read = 48
        per_write = 96
        reads = len(rwset.reads)
        for range_read in rwset.range_reads:
            reads += len(range_read.reads)
        writes = len(rwset.writes)
        return base + per_read * reads + per_write * writes


@dataclass(slots=True)
class Block:
    """An ordered batch of transactions delivered to every peer."""

    number: int
    transactions: List[Transaction] = field(default_factory=list)
    cut_reason: BlockCutReason = BlockCutReason.BLOCK_SIZE
    created_at: float = 0.0
    consensus_completed_at: float = 0.0
    reordered: bool = False

    # Pickle state: a tuple of the fields in order (see Transaction).
    def __getstate__(self) -> tuple:
        return (
            self.number,
            self.transactions,
            self.cut_reason,
            self.created_at,
            self.consensus_completed_at,
            self.reordered,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.number,
            self.transactions,
            self.cut_reason,
            self.created_at,
            self.consensus_completed_at,
            self.reordered,
        ) = state

    @property
    def size(self) -> int:
        """Number of transactions in the block (valid and failed)."""
        return len(self.transactions)

    @property
    def size_bytes(self) -> int:
        """Approximate serialized size of the block."""
        return sum(tx.estimated_size_bytes() for tx in self.transactions) + 1024

    def valid_transactions(self) -> List[Transaction]:
        """Transactions that passed VSCC and MVCC validation."""
        return [tx for tx in self.transactions if tx.is_committed]

    def failed_transactions(self) -> List[Transaction]:
        """Transactions recorded in the block with a failure code."""
        return [tx for tx in self.transactions if tx.is_failed]
