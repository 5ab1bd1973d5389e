"""The ledger-replay oracle: why a transaction failed, derived from the chain alone.

The product decides a transaction's failure once, in the component that aborts
it, and stamps the transaction (``validation_code``, ``conflicting_key``,
``conflicting_block``; see :mod:`repro.core.failures`).  This module derives
the same three facts a second time from what a ledger records — read/write
sets, validation codes and block positions — the way the paper collects its
metrics (Section 4.5: "by parsing the blockchain after each experiment").  It
shares no code with the validator: no state store, no last-writer index, and
it never reads a ``conflicting_*`` stamp.  ``tests/test_failure_oracle.py``
compares the two on every tier-1 run.

The derivation is stated in the paper's own terms.  Section 3's definitions
live here as executable predicates, and :func:`replay_chain` is their
composition: Equation 1 rejects a transaction whose endorsers disagree,
Equation 2 finds the stale point read, Equations 3 and 4 place its writer in
the reader's block or an earlier one, Equation 5 finds the phantom.

What the chain does not record is the genesis population, and the oracle does
not need it: a key no valid transaction ever wrote still has its genesis
version on every replica, so whatever a transaction observed of such a key
*is* the world state (:class:`ReplayedState`).
"""

from __future__ import annotations

import bisect
from typing import Dict, Iterable, List, Mapping, NamedTuple, Optional, Tuple

from repro.core.failures import FailureType
from repro.ledger.block import Transaction, ValidationCode
from repro.ledger.kvstore import Version
from repro.ledger.ledger import Ledger
from repro.ledger.rwset import RangeRead, ReadWriteSet

#: ``(block_number, tx_index)``.
Position = Tuple[int, int]


# ------------------------------------------------------ Section 3, Equations 1-5
def is_endorsement_policy_failure(read_sets: Iterable[ReadWriteSet]) -> bool:
    """Equation 1: different endorsers observed different versions of a key."""
    observed: Dict[str, Optional[Version]] = {}
    for read_set in read_sets:
        for read in read_set.all_reads():
            if read.key in observed and observed[read.key] != read.version:
                return True
            observed.setdefault(read.key, read.version)
    return False


def mvcc_conflicting_key(
    rwset: ReadWriteSet, world_state_versions: Mapping[str, Version]
) -> Optional[str]:
    """Equation 2: the first read key whose version differs from the world state.

    ``world_state_versions`` maps keys to their committed versions at
    validation time; keys absent from the mapping do not exist in the world
    state.  Returns ``None`` when no point read conflicts.
    """
    for read in rwset.reads:
        if world_state_versions.get(read.key) != read.version:
            return read.key
    return None


def is_transaction_dependency(reader: ReadWriteSet, writer: ReadWriteSet) -> bool:
    """Definition 4: ``reader`` depends on ``writer`` (reads a key it writes)."""
    return bool(reader.read_keys() & writer.write_keys())


def is_intra_block_conflict(reader_position: Position, writer_position: Position) -> bool:
    """Equation 3: conflicting transactions sit in the same block, writer first."""
    reader_block, reader_index = reader_position
    writer_block, writer_index = writer_position
    return reader_block == writer_block and writer_index < reader_index


def is_inter_block_conflict(reader_position: Position, writer_position: Position) -> bool:
    """Equation 4: the conflicting write was committed in an earlier block."""
    return writer_position[0] < reader_position[0]


def phantom_conflicting_key(
    range_read: RangeRead, world_state_versions: Mapping[str, Version]
) -> Optional[str]:
    """Equation 5: the first key whose presence or version changed in the range.

    ``world_state_versions`` must contain the keys currently in the queried
    interval; a key observed at endorsement but now absent, a key now present
    but not observed, or a version change all constitute a phantom read.
    Range reads without phantom detection (rich queries) never conflict.
    """
    if not range_read.phantom_detection:
        return None
    observed = {read.key: read.version for read in range_read.reads}
    current = {
        key: version
        for key, version in world_state_versions.items()
        if range_read.start_key <= key < range_read.end_key
    }
    if observed == current:
        return None
    differences = set(observed.items()) ^ set(current.items())
    return min(key for key, _version in differences)


# ------------------------------------------------------------------- the replay
class Verdict(NamedTuple):
    """What the oracle says of one transaction (``failure_type`` ``None``: valid)."""

    failure_type: Optional[FailureType]
    conflicting_key: Optional[str] = None
    conflicting_block: Optional[int] = None

    @property
    def is_mvcc(self) -> bool:
        """True for intra- or inter-block MVCC read conflicts."""
        return self.failure_type is not None and self.failure_type.is_mvcc


class ReplayedState:
    """The world state as far as the chain's valid writes determine it.

    Only keys the chain wrote are held (``None`` once deleted), each with its
    last valid writer.  For every other key the reader's own observation
    stands in: the key still has its genesis version — or its genesis absence
    — which is all any replica could have shown the reader.
    """

    def __init__(self) -> None:
        self.versions: Dict[str, Optional[Version]] = {}
        #: key -> position and read/write set of the last valid writer.
        self.writers: Dict[str, Tuple[Position, ReadWriteSet]] = {}
        self._sorted_keys: List[str] = []

    def apply(self, rwset: ReadWriteSet, position: Position) -> None:
        """Commit the write set of the valid transaction at ``position``."""
        for write in rwset.writes:
            if write.key not in self.versions:
                bisect.insort(self._sorted_keys, write.key)
            self.versions[write.key] = None if write.is_delete else Version(*position)
            self.writers[write.key] = (position, rwset)

    def under_point_reads(self, rwset: ReadWriteSet) -> Dict[str, Version]:
        """The world state over the keys ``rwset`` reads by name."""
        world = {read.key: self.versions.get(read.key, read.version) for read in rwset.reads}
        return {key: version for key, version in world.items() if version is not None}

    def under_range(self, range_read: RangeRead) -> Dict[str, Version]:
        """The world state over the interval ``range_read`` scanned."""
        world = {
            read.key: read.version for read in range_read.reads if read.key not in self.versions
        }
        low = bisect.bisect_left(self._sorted_keys, range_read.start_key)
        high = bisect.bisect_left(self._sorted_keys, range_read.end_key)
        for key in self._sorted_keys[low:high]:
            if self.versions[key] is not None:
                world[key] = self.versions[key]
        return world


#: The codes whose class nothing on the ledger could contradict: the oracle's
#: own statement of them, keyed by name so that it leans on no product table.
CLASS_OF_UNDERIVED_CODE = {
    "ENDORSEMENT_POLICY_FAILURE": FailureType.ENDORSEMENT_POLICY,
    "ABORTED_BY_REORDERING": FailureType.ORDERING_ABORT,
    "EARLY_ABORT": FailureType.EARLY_ABORT,
    "CROSS_CHANNEL_ABORT": FailureType.CROSS_CHANNEL_ABORT,
    "ENDORSEMENT_TIMEOUT": FailureType.ENDORSEMENT_TIMEOUT,
    "ORDERER_UNAVAILABLE": FailureType.ORDERER_UNAVAILABLE,
    "PEER_UNAVAILABLE": FailureType.PEER_UNAVAILABLE,
}


def _validate(tx: Transaction, position: Position, state: ReplayedState) -> Verdict:
    """Equations 1-5 applied to one transaction of a block, in Fabric's order."""
    if tx.validation_code is ValidationCode.ABORTED_BY_REORDERING:
        # Decided in the ordering phase; the block records it, nothing derives it.
        return Verdict(FailureType.ORDERING_ABORT)
    if tx.endorsement_count:
        # Equation 1, wherever the record still holds what the endorsers returned.
        mismatch = is_endorsement_policy_failure(
            response.rwset for response in tx.endorsements
        )
    else:
        mismatch = tx.validation_code is ValidationCode.ENDORSEMENT_POLICY_FAILURE
    if mismatch or tx.rwset is None:
        return Verdict(FailureType.ENDORSEMENT_POLICY)
    key = mvcc_conflicting_key(tx.rwset, state.under_point_reads(tx.rwset))
    if key is not None:
        writer, written = state.writers[key]
        assert is_transaction_dependency(tx.rwset, written), (tx.tx_id, key)
        intra = is_intra_block_conflict(position, writer)
        assert intra != is_inter_block_conflict(position, writer), (position, writer)
        failure = FailureType.MVCC_INTRA_BLOCK if intra else FailureType.MVCC_INTER_BLOCK
        return Verdict(failure, key, writer[0])
    for range_read in tx.rwset.range_reads:
        key = phantom_conflicting_key(range_read, state.under_range(range_read))
        if key is not None:
            return Verdict(FailureType.PHANTOM_READ, key, state.writers[key][0][0])
    return Verdict(None)


def replay_chain(ledger: Ledger) -> Tuple[List[Tuple[Transaction, Verdict]], ReplayedState]:
    """Every validated transaction of ``ledger`` with its derived verdict.

    Also returns the state the chain ends in.  The replay applies the writes
    of the transactions *it* finds valid, never of those the code calls valid.
    """
    state = ReplayedState()
    verdicts: List[Tuple[Transaction, Verdict]] = []
    for block in ledger:
        for index, tx in enumerate(block.transactions):
            if tx.validation_code is None:
                continue
            position = (block.number, index)
            verdict = _validate(tx, position, state)
            if verdict.failure_type is None:
                state.apply(tx.rwset, position)
            verdicts.append((tx, verdict))
    return verdicts, state


def replay_failures(
    ledger: Ledger, never_on_chain: Iterable[Transaction] = ()
) -> List[Tuple[Transaction, Verdict]]:
    """The failed transactions of one chain, in the order the analysis reports.

    The chain's failures in block order, then the aborts that never reached a
    block, whose class is their code's.
    """
    failures = [
        (tx, verdict)
        for tx, verdict in replay_chain(ledger)[0]
        if verdict.failure_type is not None
    ]
    failures.extend(
        (tx, Verdict(CLASS_OF_UNDERIVED_CODE[tx.validation_code.name])) for tx in never_on_chain
    )
    return failures
