"""Read sets, write sets and range reads (paper Section 3.1, Definitions 1-2).

A transaction's read set is the list of ``(key, version)`` pairs it observed at
endorsement time; its write set is the list of ``(key, value)`` pairs it intends
to apply.  Range reads additionally remember the queried key interval, and the
state they were read from, so that the validator can detect phantom reads
(Equation 5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterable, List, NamedTuple, Optional, Set

from repro.ledger.kvstore import Version


class KeyRead(NamedTuple):
    """One entry of a read set: a key and the version observed at endorsement.

    ``version is None`` means the key did not exist in the world state when the
    transaction was endorsed (Fabric records such reads with a nil version).

    A named tuple rather than a dataclass: read-set entries are minted on
    every ``GetState`` of every endorsement, and tuple construction skips the
    per-field ``__init__`` work entirely.  Value equality and hashing match
    the former frozen dataclass.
    """

    key: str
    version: Optional[Version]


class KeyWrite(NamedTuple):
    """One entry of a write set: a key and the value to write (or a deletion)."""

    key: str
    value: Any = None
    is_delete: bool = False


@dataclass(slots=True)
class RangeRead:
    """A range query executed at endorsement time.

    ``reads`` holds the individual key/version observations inside the interval
    ``[start_key, end_key)``.  ``phantom_detection`` is False for rich queries
    (CouchDB ``GetQueryResult``), which Fabric does not re-execute during
    validation and therefore never fails with a phantom read conflict
    (Section 5.1.2 and the footnote of Table 2).

    ``state_token`` is the
    :attr:`~repro.ledger.store.OverlayStateStore.state_token` of the state the
    range was read from, with the same invariant: an equal token means an
    equal state.  The validator then decides Equation 5 from the keys written
    since that state instead of re-executing the range; ``None`` (a view that
    names no state, or a range read built by hand) always re-executes.  The
    stamp says where the reads came from, not what they are, so it takes no
    part in equality: read/write sets of two replicas that observed the same
    versions stay equal.
    """

    start_key: str
    end_key: str
    reads: List[KeyRead] = field(default_factory=list)
    phantom_detection: bool = True
    rich_query: bool = False
    state_token: Optional[int] = field(default=None, compare=False, repr=False)

    # Pickle state: a tuple of the fields in order, not the default
    # ``{slot name: value}`` dict (read/write sets cross the shard boundary).
    def __getstate__(self) -> tuple:
        return (
            self.start_key,
            self.end_key,
            self.reads,
            self.phantom_detection,
            self.rich_query,
            self.state_token,
        )

    def __setstate__(self, state: tuple) -> None:
        (
            self.start_key,
            self.end_key,
            self.reads,
            self.phantom_detection,
            self.rich_query,
            self.state_token,
        ) = state

    @property
    def keys(self) -> List[str]:
        """Keys observed by the range read, in scan order."""
        return [read.key for read in self.reads]


@dataclass(slots=True)
class ReadWriteSet:
    """The complete read/write set of one endorsement of one transaction."""

    reads: List[KeyRead] = field(default_factory=list)
    writes: List[KeyWrite] = field(default_factory=list)
    range_reads: List[RangeRead] = field(default_factory=list)

    # Pickle state: a tuple of the fields in order (see RangeRead).
    def __getstate__(self) -> tuple:
        return (self.reads, self.writes, self.range_reads)

    def __setstate__(self, state: tuple) -> None:
        (self.reads, self.writes, self.range_reads) = state

    def read_keys(self) -> Set[str]:
        """All keys read, including keys observed through range reads."""
        keys = {read.key for read in self.reads}
        for range_read in self.range_reads:
            keys.update(range_read.keys)
        return keys

    def write_keys(self) -> Set[str]:
        """All keys written or deleted."""
        return {write.key for write in self.writes}

    def all_reads(self) -> List[KeyRead]:
        """Point reads followed by reads recorded inside range reads."""
        reads = list(self.reads)
        for range_read in self.range_reads:
            reads.extend(range_read.reads)
        return reads

    def depends_on(self, other: "ReadWriteSet") -> bool:
        """Transaction dependency (paper Definition 4).

        ``self`` depends on ``other`` when ``self`` reads at least one key that
        ``other`` writes.
        """
        return bool(self.read_keys() & other.write_keys())

    def version_of(self, key: str) -> Optional[Version]:
        """Version recorded for ``key`` in this read set, or None if not read."""
        for read in self.all_reads():
            if read.key == key:
                return read.version
        return None

    def merge_counts(self) -> dict:
        """Operation counts, used for reporting (Table 2 style summaries)."""
        return {
            "reads": len(self.reads),
            "writes": sum(1 for write in self.writes if not write.is_delete),
            "deletes": sum(1 for write in self.writes if write.is_delete),
            "range_reads": len(self.range_reads),
        }


def read_sets_consistent(read_sets: Iterable[ReadWriteSet]) -> bool:
    """Check Equation 1 of the paper across a group of endorsements.

    Returns ``False`` when two endorsing peers observed the *same key* at
    *different versions* — the condition that defines an endorsement policy
    failure caused by transient world-state inconsistency.
    """
    observed: dict[str, Optional[Version]] = {}
    sentinel = object()
    get = observed.get
    for read_set in read_sets:
        # Point reads followed by range-read observations, without building
        # the intermediate ``all_reads()`` list per read set (this check runs
        # once per transaction on the endorsement-collection hot path).
        for read in read_set.reads:
            key, version = read
            seen = get(key, sentinel)
            if seen is sentinel:
                observed[key] = version
            elif seen != version:
                return False
        for range_read in read_set.range_reads:
            for read in range_read.reads:
                key, version = read
                seen = get(key, sentinel)
                if seen is sentinel:
                    observed[key] = version
                elif seen != version:
                    return False
    return True
