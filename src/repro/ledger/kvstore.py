"""The versioned key-value store holding the world state (paper Definition 3).

Every key carries a :class:`Version` ``(block_number, tx_number)`` that is
bumped on each committed write, exactly as Fabric's state database does.  The
store is a pure in-memory data structure; the *latency* of operations is not
simulated here but described by a :class:`DatabaseLatencyProfile` that the
chaincode stub and the validating peer charge to the discrete-event clock.

Stores additionally carry the commit-epoch machinery of the copy-on-write
state layer (see :mod:`repro.ledger.store`): block commits are applied as
atomic :class:`~repro.ledger.store.WriteBatch` es, each bumping a monotone
*commit epoch* and journaling the pre-images of the changed keys.  Epoch
snapshots read past states at O(changed-keys) cost, and a last-writer index
attributes MVCC conflicts to their conflicting block in O(1) per key.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Callable, Dict, Iterator, List, NamedTuple, Optional, Tuple

from repro.errors import LedgerError, UnsupportedFeatureError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ledger.store import EpochSnapshot, OverlayStateStore, WriteBatch


class Version(NamedTuple):
    """A key version: the block number and intra-block index of the last write.

    A named tuple (cheap construction, tuple ordering identical to the former
    ``order=True`` frozen dataclass): one is minted per staged write during
    validation, which puts construction on the per-block hot path.
    """

    block_number: int
    tx_number: int

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"{self.block_number}.{self.tx_number}"


#: Version assigned to keys created when the world state is initially populated.
GENESIS_VERSION = Version(block_number=0, tx_number=0)


def reconcile_sorted_keys(
    sorted_keys: List[str], new_keys: List[str], removed: set
) -> List[str]:
    """Fold a batch's insertions/deletions into a sorted key list.

    Small batches use per-key bisect operations (a memmove each); batches
    touching a meaningful fraction of the list are folded with one sort of
    the two sorted runs instead (new keys are disjoint from kept ones, and
    timsort merges two runs in one linear pass).  Both paths yield the
    identical list; the small-batch path mutates and returns ``sorted_keys``
    in place.
    """
    new_keys.sort()
    if (len(new_keys) + len(removed)) * 16 < len(sorted_keys):
        for key in removed:
            index = bisect.bisect_left(sorted_keys, key)
            sorted_keys.pop(index)
        for key in new_keys:
            bisect.insort(sorted_keys, key)
        return sorted_keys
    kept = [key for key in sorted_keys if key not in removed] if removed else sorted_keys
    merged = kept + new_keys
    merged.sort()
    return merged


@dataclass(slots=True)
class StateEntry:
    """Value and version currently stored for one key (allocated per write)."""

    value: Any
    version: Version


@dataclass(frozen=True)
class DatabaseLatencyProfile:
    """Per-operation latency (seconds) of a state database backend.

    The defaults of the two concrete profiles (:data:`LEVELDB_PROFILE` and
    :data:`COUCHDB_PROFILE`) are calibrated from the function-call latencies the
    paper reports in Table 4 (GetState, PutState, GetRange, DeleteState).
    """

    name: str
    get_state: float
    put_state: float
    delete_state: float
    range_base: float
    range_per_key: float
    rich_query_base: float
    rich_query_per_key: float
    #: Cost of re-checking one read key's version during MVCC validation.  The
    #: check goes to the state database, so it is markedly more expensive for
    #: the external CouchDB than for the embedded LevelDB.
    mvcc_check_per_key: float
    commit_per_write: float
    commit_per_block: float

    def range_cost(self, key_count: int) -> float:
        """Cost of scanning ``key_count`` keys with a range read."""
        return self.range_base + self.range_per_key * key_count

    def rich_query_cost(self, key_count: int) -> float:
        """Cost of running a rich (Mango-style) query over ``key_count`` results."""
        return self.rich_query_base + self.rich_query_per_key * key_count


#: LevelDB is embedded in the peer process: sub-millisecond operations (Table 4:
#: GetState 0.6 ms, PutState 0.5 ms, GetRange 1.4 ms, DeleteState 0.6 ms).
LEVELDB_PROFILE = DatabaseLatencyProfile(
    name="LevelDB",
    get_state=0.0006,
    put_state=0.0005,
    delete_state=0.0006,
    range_base=0.0012,
    range_per_key=0.00002,
    rich_query_base=0.0012,
    rich_query_per_key=0.00002,
    mvcc_check_per_key=0.0002,
    commit_per_write=0.0004,
    commit_per_block=0.002,
)

#: CouchDB is an external database reached over REST: much slower, especially
#: for range reads, which carry a large fixed REST/indexing cost (Table 4:
#: GetState 8.3 ms, PutState 0.8 ms, GetRange 88 ms, DeleteState 1.2 ms).
COUCHDB_PROFILE = DatabaseLatencyProfile(
    name="CouchDB",
    get_state=0.0083,
    put_state=0.0008,
    delete_state=0.0012,
    range_base=0.08,
    range_per_key=0.0001,
    rich_query_base=0.04,
    rich_query_per_key=0.0001,
    mvcc_check_per_key=0.002,
    commit_per_write=0.004,
    commit_per_block=0.008,
)


class EpochCommitState:
    """Commit epochs, pre-image journal, last-writer index and freezing.

    Shared by :class:`VersionedKVStore` and
    :class:`~repro.ledger.store.OverlayStateStore` — every state store of the
    copy-on-write layer exposes the same epoch surface:

    * ``commit_epoch`` advances by one per :meth:`apply_batch` (block commit).
    * The journal keeps the pre-images of the keys changed by the most recent
      epochs, so :meth:`snapshot` reconstructs a recent past state at
      O(changed-keys) cost instead of materializing the full key space.
    * ``last_writer_block`` answers "which block last wrote (or deleted) this
      key" in O(1) — the index behind MVCC conflict attribution.
    * :meth:`freeze` turns the store immutable, the contract that lets many
      overlays share it as their base.

    Direct ``put``/``delete`` calls (population, unit tests) deliberately do
    not advance the epoch or the last-writer index: epochs count *commits*.
    """

    #: How many recent epochs keep their pre-images available for snapshots.
    journal_retention = 8

    def _init_epoch_state(self) -> None:
        self._commit_epoch = 0
        self._journal: Dict[int, Dict[str, Optional[StateEntry]]] = {}
        self._last_writer: Dict[str, int] = {}
        self._frozen = False

    @property
    def commit_epoch(self) -> int:
        """Monotone commit counter: one epoch per applied write batch."""
        return self._commit_epoch

    @property
    def state_token(self) -> Optional[int]:
        """``None``: a flat store is not a replica of anything, so no other
        state view can be known to hold the same state (overlays override
        this — see :attr:`~repro.ledger.store.OverlayStateStore.state_token`)."""
        return None

    @property
    def frozen(self) -> bool:
        """True once the store was made immutable with :meth:`freeze`."""
        return self._frozen

    def freeze(self) -> None:
        """Make the store immutable (any further mutation raises)."""
        self._frozen = True

    def _require_mutable(self, operation: str) -> None:
        if self._frozen:
            raise LedgerError(
                f"cannot {operation} on a frozen state store; frozen stores are "
                "shared as immutable overlay bases"
            )

    def last_writer_block(self, key: str) -> Optional[int]:
        """Block number of the last batch-committed write/delete of ``key``."""
        return self._last_writer.get(key)

    def _record_commit(self, pre_images: Dict[str, Optional[StateEntry]]) -> None:
        self._commit_epoch += 1
        self._journal[self._commit_epoch] = pre_images
        stale = self._commit_epoch - self.journal_retention
        if stale in self._journal:
            del self._journal[stale]

    def snapshot(self, epoch: Optional[int] = None) -> "EpochSnapshot":
        """A read view of the state as committed at ``epoch`` (default: now).

        The view costs O(keys changed since ``epoch``): it overlays the
        journaled pre-images onto the live store.  Epochs older than the
        journal retention window raise :class:`~repro.errors.LedgerError`.
        """
        from repro.ledger.store import EpochSnapshot

        current = self._commit_epoch
        if epoch is None:
            epoch = current
        if epoch < 0 or epoch > current:
            raise LedgerError(
                f"cannot snapshot epoch {epoch}; the store is at commit epoch {current}"
            )
        pre_images: Dict[str, Optional[StateEntry]] = {}
        for changed_epoch in range(epoch + 1, current + 1):
            changes = self._journal.get(changed_epoch)
            if changes is None:
                raise LedgerError(
                    f"epoch {epoch} is no longer retained (journal keeps the last "
                    f"{self.journal_retention} epochs; the store is at epoch {current})"
                )
            for key, pre_image in changes.items():
                # The earliest change after the pinned epoch carries the
                # pre-image that was live *at* the pinned epoch.
                pre_images.setdefault(key, pre_image)
        return EpochSnapshot(self, epoch, pre_images)


class VersionedKVStore(EpochCommitState):
    """An ordered, versioned key-value store.

    Keys are kept in a sorted list alongside a hash map so that point lookups
    are O(1) and range scans are O(log n + k).  The store never advances the
    simulation clock; latency accounting lives in the components that use it.
    """

    #: Whether this store executes rich (Mango-style) queries natively.  This
    #: is a *view* capability, not a backend latency property: only the
    #: concrete :class:`~repro.ledger.couchdb.CouchDBStore` answers True;
    #: replicas derived from it (``copy()``, overlays, snapshots) fall back to
    #: range scans exactly like the endorsing peers of the simulation always
    #: have, even though they carry the CouchDB latency profile.
    supports_rich_queries = False

    def __init__(self, latency: DatabaseLatencyProfile = LEVELDB_PROFILE) -> None:
        self.latency = latency
        self._entries: Dict[str, StateEntry] = {}
        self._sorted_keys: List[str] = []
        self._init_epoch_state()

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        return key in self._entries

    def keys(self) -> List[str]:
        """All keys in sorted order (a copy, safe to mutate).

        Hot paths that only iterate should prefer :meth:`iter_keys`, which
        does not copy the key list.
        """
        return list(self._sorted_keys)

    def iter_keys(self) -> Iterator[str]:
        """Iterate all keys in sorted order without copying the key list."""
        return iter(self._sorted_keys)

    def get(self, key: str) -> Optional[StateEntry]:
        """Return the entry for ``key`` or ``None`` when the key is absent."""
        return self._entries.get(key)

    def get_version(self, key: str) -> Optional[Version]:
        """Version currently stored for ``key`` (``None`` when absent)."""
        entry = self._entries.get(key)
        return entry.version if entry is not None else None

    def get_value(self, key: str) -> Optional[Any]:
        """Value currently stored for ``key`` (``None`` when absent)."""
        entry = self._entries.get(key)
        return entry.value if entry is not None else None

    # ----------------------------------------------------------------- writes
    def put(self, key: str, value: Any, version: Version) -> None:
        """Write ``value`` under ``key`` with the given committed ``version``."""
        self._require_mutable("put")
        if not isinstance(key, str) or not key:
            raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
        if key not in self._entries:
            bisect.insort(self._sorted_keys, key)
        self._entries[key] = StateEntry(value=value, version=version)

    def delete(self, key: str) -> None:
        """Remove ``key`` from the world state (no-op when absent)."""
        self._require_mutable("delete")
        if key in self._entries:
            del self._entries[key]
            index = bisect.bisect_left(self._sorted_keys, key)
            if index < len(self._sorted_keys) and self._sorted_keys[index] == key:
                self._sorted_keys.pop(index)

    def apply_batch(self, batch: "WriteBatch") -> Dict[str, Optional[StateEntry]]:
        """Apply one block's staged writes atomically; return the pre-images.

        One batch application is one commit epoch: the sorted key list is
        reconciled in a single pass instead of per-key ``bisect.insort``
        churn, the changed keys' pre-images are journaled for epoch
        snapshots, and the last-writer index advances to the batch's block.
        """
        self._require_mutable("apply a batch")
        pre_images: Dict[str, Optional[StateEntry]] = {}
        new_keys: List[str] = []
        removed: set[str] = set()
        for key, staged in batch.staged_items():
            existing = self._entries.get(key)
            pre_images[key] = existing
            if staged is None:
                if existing is not None:
                    del self._entries[key]
                    removed.add(key)
            else:
                if existing is None:
                    new_keys.append(key)
                self._entries[key] = staged
            self._last_writer[key] = batch.block_number
        if new_keys or removed:
            self._sorted_keys = reconcile_sorted_keys(self._sorted_keys, new_keys, removed)
        self._record_commit(pre_images)
        return pre_images

    # ----------------------------------------------------------------- ranges
    def range(self, start_key: str, end_key: str) -> List[Tuple[str, StateEntry]]:
        """All ``(key, entry)`` pairs with ``start_key <= key < end_key``."""
        if end_key < start_key:
            raise LedgerError(
                f"invalid range: end key {end_key!r} precedes start key {start_key!r}"
            )
        lo = bisect.bisect_left(self._sorted_keys, start_key)
        hi = bisect.bisect_left(self._sorted_keys, end_key)
        return [(key, self._entries[key]) for key in self._sorted_keys[lo:hi]]

    def scan(self, predicate: Callable[[str, Any], bool]) -> List[Tuple[str, StateEntry]]:
        """Full scan returning entries whose ``(key, value)`` satisfy ``predicate``."""
        return [
            (key, self._entries[key])
            for key in self._sorted_keys
            if predicate(key, self._entries[key].value)
        ]

    def items(self) -> Iterator[Tuple[str, StateEntry]]:
        """Iterate ``(key, entry)`` pairs in key order."""
        for key in self._sorted_keys:
            yield key, self._entries[key]

    # ---------------------------------------------------------- rich queries
    def rich_query(self, selector: Any) -> List[Tuple[str, StateEntry]]:
        """Rich queries require a store that executes them natively."""
        raise UnsupportedFeatureError(
            f"{type(self).__name__} does not execute rich queries natively; "
            "only the CouchDB state database supports them"
        )

    # ------------------------------------------------------------------ setup
    def populate(self, initial: Dict[str, Any]) -> None:
        """Bulk-load the initial world state with the genesis version.

        The fast path :func:`repro.ledger.factory.genesis_base` fills the frozen
        base with: no per-key sorted insertion as in :meth:`put`, which matters for
        the 100,000-key genChain population of the synthetic experiments.
        """
        self._require_mutable("populate")
        for key in initial:
            if not isinstance(key, str) or not key:
                raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
        merged = dict(self._entries)
        for key, value in initial.items():
            merged[key] = StateEntry(value=value, version=GENESIS_VERSION)
        self._entries = merged
        self._sorted_keys = sorted(merged)

    def snapshot_versions(self) -> Dict[str, Version]:
        """Mapping key -> version of the full state (an O(state) copy).

        Prefer :meth:`EpochCommitState.snapshot`, whose
        :meth:`~repro.ledger.store.EpochSnapshot.get_version` answers the same
        question at O(changed-keys) total cost.
        """
        return {key: entry.version for key, entry in self._entries.items()}

    def copy(self) -> "VersionedKVStore":
        """Deep-enough copy (values are shared; entries are new objects).

        The copy is a plain, unfrozen :class:`VersionedKVStore` with a fresh
        epoch lineage.  Peer replicas no longer use this — they layer an
        :meth:`overlay` over one shared frozen base instead.
        """
        clone = VersionedKVStore(latency=self.latency)
        clone._entries = {
            key: StateEntry(value=entry.value, version=entry.version)
            for key, entry in self._entries.items()
        }
        clone._sorted_keys = list(self._sorted_keys)
        return clone

    def overlay(self) -> "OverlayStateStore":
        """A copy-on-write store layered over this one as its shared base.

        The base should be frozen first: every overlay assumes its base no
        longer changes.  Creating an overlay is O(1) and each overlay only
        stores its own divergence, which is what lets every endorsing peer
        hold a full world-state view without duplicating the genesis state.
        """
        from repro.ledger.store import OverlayStateStore

        return OverlayStateStore(self)
