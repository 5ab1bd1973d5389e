"""Canonical block validation: VSCC, MVCC and phantom-read checks.

Every peer validates each block independently in Fabric, but because all peers
receive the same blocks in the same order, they all reach identical validity
decisions.  The simulator therefore computes the validation outcome once, on a
canonical view of the world state, when a block leaves the ordering service;
individual peers then only model the *time* their validation and commit take
and apply the writes to their own store when they finish.

The valid write sets of a block are staged into one
:class:`~repro.ledger.store.WriteBatch` and applied to the canonical store
atomically when the block finishes validating (one commit epoch per block).
While the block validates, the batch doubles as the read-through delta:
MVCC version checks and phantom range re-checks of later transactions see the
staged writes of earlier valid transactions of the same block, which is what
produces *intra-block* conflicts.  Conflict attribution uses the store's
last-writer index (O(1) per key).

The checks implement the failure definitions of paper Section 3:

* VSCC / endorsement policy failure — the read sets returned by different
  endorsing peers disagree on the version of at least one key (Equation 1).
* MVCC read conflict — the version of a read key no longer matches the
  committed world state (Equation 2); whether the conflicting write happened in
  the same block or an earlier block distinguishes intra- from inter-block
  conflicts (Equations 3 and 4): the validator stamps the conflicting key and
  the block of its last writer on the transaction, and
  :func:`repro.core.failures.failure_type_of` reads the split off that stamp.
* Phantom read conflict — re-executing a range query returns a different set of
  keys or versions (Equation 5).  Rich queries are not re-executed and can
  therefore never fail this check.  A range read stamped with the
  ``state_token`` of the state it was read from is decided without the
  re-execution: only keys written since that state can differ, so the
  validator probes the keys of the batches it applied since (it keeps the last
  :data:`PHANTOM_WINDOW`) and of the current batch that fall inside the range.
  The first key that differs is the one the re-execution would name.  A range
  read without a stamp, a stamp older than the window, or a canonical store
  written outside :meth:`BlockValidator.validate_block` re-executes the range.

Fault injection (:mod:`repro.faults`) never changes the validation verdicts
themselves: the three infrastructure failure classes abort transactions
*before* they reach a block, so canonical validation only ever sees the
survivors.  What faults do change arrives indirectly — crashed peers defer
their commits and endorse from staler replicas, which surfaces here as
additional endorsement policy failures.
"""

from __future__ import annotations

import bisect
from operator import itemgetter
from typing import Dict, List, Optional, Tuple

from repro.ledger.block import Block, Transaction, ValidationCode
from repro.ledger.kvstore import Version
from repro.ledger.rwset import RangeRead, ReadWriteSet
from repro.ledger.store import _MISS, MutableStateStore, WriteBatch
from repro.lifecycle.events import LifecycleBus, LifecycleEventType

#: Commit epochs whose batches the validator keeps for phantom checks; a range
#: read of an older state re-executes its range.  Sized from measured lags
#: between a range read's state and its validating block ("Phantom checks from
#: the keys written" in docs/ARCHITECTURE.md): up to 39 blocks for Fabric++ on
#: SCM at 200 tx/s, 77 at 400 tx/s, so the journal's 8 epochs are too few.
PHANTOM_WINDOW = 64

_read_key = itemgetter(0)


class BlockValidator:
    """Assigns validation codes to the transactions of each block in order.

    The validation stage of the lifecycle pipeline
    (:class:`~repro.lifecycle.stages.ValidationStage`): when wired to a
    :class:`~repro.lifecycle.events.LifecycleBus`, every transaction's verdict
    is published as a ``VALIDATED`` event the moment it is assigned.
    """

    def __init__(self, store: MutableStateStore, bus: Optional[LifecycleBus] = None) -> None:
        #: The canonical committed world state (same content as every peer's
        #: store once that peer has caught up).  Typically an
        #: :class:`~repro.ledger.store.OverlayStateStore` over the shared
        #: frozen genesis base.
        self.store = store
        self.bus = bus
        #: The batch each of the last :data:`PHANTOM_WINDOW` commit epochs of
        #: ``store`` applied, by the epoch it produced.
        self._recent: Dict[int, WriteBatch] = {}

    # ----------------------------------------------------------------- blocks
    def validate_block(self, block: Block) -> WriteBatch:
        """Validate every transaction of ``block`` and commit the valid writes.

        Returns the applied :class:`WriteBatch`.  Staged entries are never
        mutated after this method returns, so the ordering service hands the
        same batch to every peer's replica commit instead of each peer
        rebuilding an identical batch from the block's write sets.
        """
        batch = WriteBatch(block.number)
        for index, tx in enumerate(block.transactions):
            tx.block_number = block.number
            tx.tx_index = index
            if tx.validation_code is not ValidationCode.ABORTED_BY_REORDERING:
                # Fabric++-aborted transactions are still recorded in the block
                # but never validated or applied.
                tx.validation_code = self._validate_transaction(tx, batch)
                if tx.validation_code is ValidationCode.VALID:
                    self._stage_writes(tx, batch, block.number, index)
            self._emit_validated(tx)
        store = self.store
        store.apply_batch(batch)
        epoch = store.commit_epoch
        recent = self._recent
        recent[epoch] = batch
        recent.pop(epoch - PHANTOM_WINDOW, None)
        return batch

    def _emit_validated(self, tx: Transaction) -> None:
        bus = self.bus
        if bus is not None:
            bus.emit_failure(
                LifecycleEventType.VALIDATED,
                tx.ordered_at if tx.ordered_at is not None else 0.0,
                tx,
            )

    # ----------------------------------------------------------- transactions
    def _validate_transaction(self, tx: Transaction, batch: WriteBatch) -> ValidationCode:
        if tx.rwset is None:
            # No endorsement ever completed; Fabric would reject this at VSCC.
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        if tx.endorsement_mismatch:
            return ValidationCode.ENDORSEMENT_POLICY_FAILURE
        mvcc = self._check_point_reads(tx.rwset, batch)
        if mvcc is not None:
            tx.conflicting_key, tx.conflicting_block = mvcc
            return ValidationCode.MVCC_READ_CONFLICT
        phantom = self._check_range_reads(tx.rwset, batch)
        if phantom is not None:
            tx.conflicting_key, tx.conflicting_block = phantom
            return ValidationCode.PHANTOM_READ_CONFLICT
        return ValidationCode.VALID

    def _check_point_reads(
        self, rwset: ReadWriteSet, batch: WriteBatch
    ) -> Optional[Tuple[str, Optional[int]]]:
        """Equation 2: every read version must still match the world state."""
        for read in rwset.reads:
            staged = batch.staged(read.key, _MISS)
            if staged is _MISS:
                current = self.store.get_version(read.key)
            else:
                current = staged.version if staged is not None else None
            if current != read.version:
                return read.key, self._attribute_writer(read.key, batch)
        return None

    def _check_range_reads(
        self, rwset: ReadWriteSet, batch: WriteBatch
    ) -> Optional[Tuple[str, Optional[int]]]:
        """Equation 5: a phantom-checked range must read the same now."""
        for range_read in rwset.range_reads:
            if not range_read.phantom_detection:
                continue
            written = self._written_since(range_read.state_token)
            if written is None:
                conflicting_key = self._rescan_range(range_read, batch)
            else:
                conflicting_key = self._probe_written_keys(range_read, batch, written)
            if conflicting_key is not None:
                return conflicting_key, self._attribute_writer(conflicting_key, batch)
        return None

    def _written_since(self, token: Optional[int]) -> Optional[List[WriteBatch]]:
        """The batches applied since the state named ``token``, oldest first.

        ``None`` unless the canonical store names its state (its whole history
        is batches applied in sequence, see
        :attr:`~repro.ledger.store.OverlayStateStore.state_token`) and every
        batch since ``token`` is one this validator applied and still keeps.
        """
        if token is None:
            return None
        current = self.store.state_token  # type: ignore[attr-defined]
        if current is None or not 0 <= current - token <= PHANTOM_WINDOW:
            return None
        recent = self._recent
        written = []
        for epoch in range(token + 1, current + 1):
            applied = recent.get(epoch)
            if applied is None:
                return None
            written.append(applied)
        return written

    def _probe_written_keys(
        self, range_read: RangeRead, batch: WriteBatch, written: List[WriteBatch]
    ) -> Optional[str]:
        """The smallest key of the range whose presence or version moved.

        Only a key of ``written`` or ``batch`` can read differently now than
        in the state the range was read from, so these are the candidates;
        every other key of the range holds the same entry then and now.  The
        answer is therefore the smallest key of the re-scan's symmetric
        difference, the key :meth:`_rescan_range` names.
        """
        start_key = range_read.start_key
        end_key = range_read.end_key
        candidates = set()
        for applied in (*written, batch):
            keys = applied.sorted_keys()
            lo = bisect.bisect_left(keys, start_key)
            hi = bisect.bisect_left(keys, end_key, lo)
            if lo < hi:
                candidates.update(keys[lo:hi])
        reads = range_read.reads
        get = self.store.get
        staged = batch.staged
        for key in sorted(candidates):
            index = bisect.bisect_left(reads, key, key=_read_key)
            if index < len(reads) and reads[index].key == key:
                observed = reads[index].version
            else:
                observed = None
            entry = staged(key, _MISS)
            if entry is _MISS:
                entry = get(key)
            if (entry.version if entry is not None else None) != observed:
                return key
        return None

    def _rescan_range(self, range_read: RangeRead, batch: WriteBatch) -> Optional[str]:
        """Re-execute the range on the current state and compare the results;
        the smallest key whose presence or version differs, if any."""
        observed = {read.key: read.version for read in range_read.reads}
        current_entries = batch.merge_range(
            self.store.range(range_read.start_key, range_read.end_key),
            range_read.start_key,
            range_read.end_key,
        )
        current = {key: entry.version for key, entry in current_entries}
        if observed == current:
            return None
        changed = set(observed.items()) ^ set(current.items())
        return min(key for key, _version in changed)

    def _attribute_writer(self, key: str, batch: WriteBatch) -> Optional[int]:
        """The block whose write conflicts with a read of ``key`` (O(1))."""
        if key in batch:
            return batch.block_number
        return self.store.last_writer_block(key)

    # ------------------------------------------------------------------ stage
    def _stage_writes(
        self, tx: Transaction, batch: WriteBatch, block_number: int, tx_index: int
    ) -> None:
        assert tx.rwset is not None  # guaranteed by _validate_transaction
        version = Version(block_number=block_number, tx_number=tx_index)
        for write in tx.rwset.writes:
            if write.is_delete:
                batch.delete(write.key)
            else:
                batch.put(write.key, write.value, version)

    # -------------------------------------------------------------- inspection
    def current_version(self, key: str) -> Optional[Version]:
        """Version of ``key`` in the canonical committed state (None if absent)."""
        return self.store.get_version(key)

    def last_writer_block(self, key: str) -> Optional[int]:
        """Block number of the last committed write to ``key`` (None if never written)."""
        return self.store.last_writer_block(key)
