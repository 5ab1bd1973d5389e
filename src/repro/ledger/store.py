"""Copy-on-write state layer: overlays, write batches and epoch snapshots.

This module is the state-view substrate of the simulator.  The paper's three
failure classes (endorsement policy, MVCC, phantom) all hinge on *which
version of the world state* each component sees; this layer makes every such
view cheap to hold:

* :class:`StateStore` — the protocol every world-state view implements, from
  the concrete LevelDB/CouchDB stores to overlays and lagged snapshots.
* :class:`WriteBatch` — one block's staged writes, applied atomically at
  commit.  While a block validates, the batch doubles as the read-through
  delta for intra-block MVCC and phantom re-checks.
* :class:`OverlayStateStore` — an immutable shared base plus a private delta.
  Every endorsing peer (and the canonical validator state) layers its
  committed-but-divergent writes over one frozen genesis base instead of
  deep-copying the full key population.
* :class:`EpochSnapshot` — the state as of a past commit epoch, reconstructed
  from journaled pre-images at O(changed-keys) cost.
* :class:`LaggedStateView` — FabricSharp's lagging block snapshot
  (paper Section 5.4.1), now served from the epoch journal instead of an
  ad-hoc pre-image dict.

Representation changes only: every view in this module returns bit-identical
contents to the deep-copy stores it replaced (pinned by the golden lifecycle
records and the differential property tests).
"""

from __future__ import annotations

import bisect
from typing import (
    Any,
    Callable,
    Dict,
    Iterator,
    List,
    Optional,
    Protocol,
    Tuple,
    runtime_checkable,
)

from repro.errors import LedgerError, UnsupportedFeatureError
from repro.ledger.kvstore import (
    GENESIS_VERSION,
    DatabaseLatencyProfile,
    EpochCommitState,
    StateEntry,
    Version,
    VersionedKVStore,
    reconcile_sorted_keys,
)

#: Sentinel distinguishing "key not staged/journaled" from "staged as deleted".
_MISS = object()


def merge_sorted_overlay(
    base_pairs: "Iterator[Tuple[str, StateEntry]] | List[Tuple[str, StateEntry]]",
    overlay_keys: List[str],
    lookup: Dict[str, Optional[StateEntry]],
) -> Iterator[Tuple[str, StateEntry]]:
    """Merge sorted ``(key, entry)`` pairs with a sorted overlay, in key order.

    The single merge primitive of the state layer: ``lookup`` maps each
    overlay key to its winning entry (``None`` is a tombstone and suppresses
    the key).  Overlay entries shadow base entries; everything stays sorted.
    Overlay stores, write batches and epoch snapshots all merge through here,
    so tombstone semantics cannot drift between them.
    """
    overlay_iter = iter(overlay_keys)
    next_overlay = next(overlay_iter, None)
    for key, entry in base_pairs:
        while next_overlay is not None and next_overlay < key:
            winner = lookup[next_overlay]
            if winner is not None:
                yield next_overlay, winner
            next_overlay = next(overlay_iter, None)
        if next_overlay == key:
            winner = lookup[key]
            if winner is not None:
                yield key, winner
            next_overlay = next(overlay_iter, None)
        else:
            yield key, entry
    while next_overlay is not None:
        winner = lookup[next_overlay]
        if winner is not None:
            yield next_overlay, winner
        next_overlay = next(overlay_iter, None)


@runtime_checkable
class StateStore(Protocol):
    """The world-state surface shared by every store and state view.

    Components of the transaction lifecycle (chaincode stub, validator,
    peers) only ever talk to this protocol, never to a concrete store class —
    which is what allows base stores, overlays and snapshots to be swapped
    freely without changing what any component observes.
    """

    latency: DatabaseLatencyProfile
    supports_rich_queries: bool

    def get(self, key: str) -> Optional[StateEntry]:
        """The entry stored under ``key`` (``None`` when absent)."""
        ...

    def get_version(self, key: str) -> Optional[Version]:
        """The committed version of ``key`` (``None`` when absent)."""
        ...

    def get_value(self, key: str) -> Optional[Any]:
        """The value stored under ``key`` (``None`` when absent)."""
        ...

    def range(self, start_key: str, end_key: str) -> List[Tuple[str, StateEntry]]:
        """All ``(key, entry)`` pairs with ``start_key <= key < end_key``, sorted."""
        ...

    def rich_query(self, selector: Any) -> List[Tuple[str, StateEntry]]:
        """CouchDB-style selector query (empty on stores without rich queries)."""
        ...


@runtime_checkable
class MutableStateStore(StateStore, Protocol):
    """A state store that also accepts writes and batched block commits."""

    def put(self, key: str, value: Any, version: Version) -> None:
        """Write ``value`` under ``key`` at ``version``."""
        ...

    def delete(self, key: str) -> None:
        """Remove ``key`` from the world state (no-op when absent)."""
        ...

    def apply_batch(self, batch: "WriteBatch") -> Dict[str, Optional[StateEntry]]:
        """Apply one block's writes atomically; returns the changed pre-images."""
        ...


class WriteBatch:
    """One block's write set, staged for an atomic commit.

    The batch keeps the *final* staged entry per key (``None`` marks a
    deletion), exactly mirroring Fabric's one-write-per-key block semantics.
    During validation it doubles as the read-through delta: MVCC point checks
    consult :meth:`staged` and phantom range re-checks consult
    :meth:`merge_range`, so a transaction sees the writes of earlier valid
    transactions of the same block before anything touches the store.
    """

    __slots__ = ("block_number", "_staged", "_sorted_cache")

    def __init__(self, block_number: int) -> None:
        self.block_number = block_number
        self._staged: Dict[str, Optional[StateEntry]] = {}
        self._sorted_cache: Optional[List[str]] = None

    def __len__(self) -> int:
        return len(self._staged)

    def __contains__(self, key: str) -> bool:
        return key in self._staged

    # ---------------------------------------------------------------- staging
    def put(self, key: str, value: Any, version: Version) -> None:
        """Stage a write of ``key`` (the last staged write per key wins)."""
        if not isinstance(key, str) or not key:
            raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
        if key not in self._staged:
            self._sorted_cache = None
        self._staged[key] = StateEntry(value=value, version=version)

    def delete(self, key: str) -> None:
        """Stage a deletion of ``key``."""
        if not isinstance(key, str) or not key:
            raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
        if key not in self._staged:
            self._sorted_cache = None
        self._staged[key] = None

    # ---------------------------------------------------------------- reading
    def staged(self, key: str, default: Any = None) -> Any:
        """The staged entry for ``key``: a :class:`StateEntry`, ``None`` for a
        staged deletion, or ``default`` when the key is not in the batch."""
        return self._staged.get(key, default)

    def staged_items(self) -> Iterator[Tuple[str, Optional[StateEntry]]]:
        """Iterate ``(key, staged_entry)`` pairs in staging order."""
        return iter(self._staged.items())

    def sorted_keys(self) -> List[str]:
        """The staged keys in sorted order (cached between mutations)."""
        if self._sorted_cache is None:
            self._sorted_cache = sorted(self._staged)
        return self._sorted_cache

    def merge_range(
        self, base_pairs: List[Tuple[str, StateEntry]], start_key: str, end_key: str
    ) -> List[Tuple[str, StateEntry]]:
        """Overlay the staged writes in ``[start_key, end_key)`` onto a range
        result, honoring staged deletions."""
        if not self._staged:
            return base_pairs
        keys = self.sorted_keys()
        lo = bisect.bisect_left(keys, start_key)
        hi = bisect.bisect_left(keys, end_key)
        if lo == hi:
            return base_pairs
        return list(merge_sorted_overlay(base_pairs, keys[lo:hi], self._staged))


class OverlayStateStore(EpochCommitState):
    """A copy-on-write world state: an immutable shared base plus a delta.

    Reads fall through to the base unless the key was written locally; writes
    only ever touch the private delta, so N peers sharing one frozen
    100k-key genesis base cost O(genesis + sum of divergences) instead of
    O(N x genesis).  The overlay exposes the full
    :class:`~repro.ledger.kvstore.VersionedKVStore` surface, including the
    commit-epoch machinery, so validators and peers use it interchangeably.

    Like the ``copy()`` replicas it replaces, an overlay never executes rich
    queries natively (``supports_rich_queries`` is ``False``) — endorsing
    peers have always taken the range-scan path, and the failure semantics of
    the RR* chaincode functions depend on that.
    """

    supports_rich_queries = False

    def __init__(self, base: VersionedKVStore) -> None:
        self._base = base
        self.latency = base.latency
        self._delta: Dict[str, Optional[StateEntry]] = {}
        self._delta_keys: List[str] = []
        self._len = len(base)
        self._init_epoch_state()
        #: False from the first write around :meth:`apply_batch`, which makes
        #: ``commit_epoch`` stop naming this replica's state (see :attr:`state_token`).
        self._batches_only = True

    @property
    def base(self) -> VersionedKVStore:
        """The shared (ideally frozen) base this overlay diverges from."""
        return self._base

    @property
    def delta_size(self) -> int:
        """Number of keys this overlay has diverged on (incl. tombstones)."""
        return len(self._delta)

    @property
    def state_token(self) -> Optional[int]:
        """A value two overlays of one base share only if they hold the same state.

        That is ``commit_epoch`` for as long as the overlay's whole history is
        "block 1, block 2, ... block ``commit_epoch``" — :meth:`apply_batch`
        takes blocks in order only — and nothing was written around
        :meth:`apply_batch`.  Two such overlays over one frozen base applied
        the same batches in the same order, so they are the same database and
        a chaincode function reads the same answer from either — endorsing
        peers simulate a proposal once per token instead of once per endorser.
        From the first direct ``put``/``delete``/``populate`` onward — and over
        a base that was never frozen — the token is ``None``: "shares with
        nobody".

        Scope: one channel.  All channels of a process overlay one genesis
        base, so two channels at one epoch carry equal tokens and different
        states; a table keyed by tokens is per channel (the endorsers'
        :class:`~repro.network.peer.ResultTable` is).
        """
        if self._batches_only and self._base._frozen:
            return self._commit_epoch
        return None

    # ------------------------------------------------------------------ basic
    def __len__(self) -> int:
        return self._len

    def __contains__(self, key: str) -> bool:
        return self.get(key) is not None

    def get(self, key: str) -> Optional[StateEntry]:
        """Return the entry for ``key`` or ``None`` when the key is absent."""
        entry = self._delta.get(key, _MISS)
        if entry is not _MISS:
            return entry
        return self._base.get(key)

    def get_version(self, key: str) -> Optional[Version]:
        """Version currently stored for ``key`` (``None`` when absent)."""
        entry = self.get(key)
        return entry.version if entry is not None else None

    def get_value(self, key: str) -> Optional[Any]:
        """Value currently stored for ``key`` (``None`` when absent)."""
        entry = self.get(key)
        return entry.value if entry is not None else None

    # ----------------------------------------------------------------- writes
    def put(self, key: str, value: Any, version: Version) -> None:
        """Write ``value`` under ``key`` with the given committed ``version``."""
        self._require_mutable("put")
        if not isinstance(key, str) or not key:
            raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
        self._put_entry(key, StateEntry(value=value, version=version))

    def delete(self, key: str) -> None:
        """Remove ``key`` from the world state (no-op when absent)."""
        self._require_mutable("delete")
        self._delete_entry(key)

    def _put_entry(self, key: str, entry: StateEntry) -> None:
        self._batches_only = False
        previous = self._delta.get(key, _MISS)
        if previous is _MISS:
            bisect.insort(self._delta_keys, key)
            if self._base.get(key) is None:
                self._len += 1
        elif previous is None:
            self._len += 1
        self._delta[key] = entry

    def _delete_entry(self, key: str) -> None:
        self._batches_only = False
        previous = self._delta.get(key, _MISS)
        if previous is _MISS:
            if self._base.get(key) is not None:
                # Shadow the base entry with a tombstone.
                bisect.insort(self._delta_keys, key)
                self._delta[key] = None
                self._len -= 1
        elif previous is not None:
            if self._base.get(key) is not None:
                self._delta[key] = None
            else:
                # The key only ever lived in the delta: drop it entirely.
                del self._delta[key]
                index = bisect.bisect_left(self._delta_keys, key)
                self._delta_keys.pop(index)
            self._len -= 1

    def apply_batch(self, batch: WriteBatch) -> Dict[str, Optional[StateEntry]]:
        """Apply the next block's staged writes atomically; return the pre-images.

        A batch of any other block raises :class:`~repro.errors.LedgerError`
        and changes nothing.  The sorted delta-key list is reconciled once per
        batch (the same single-pass/bisect threshold as the flat store)
        instead of paying a ``bisect.insort`` per first-touch key on the hot
        commit path.
        """
        self._require_mutable("apply a batch")
        if batch.block_number != self._commit_epoch + 1:
            raise LedgerError(
                f"block {batch.block_number} applied out of order after block {self._commit_epoch}"
            )
        pre_images: Dict[str, Optional[StateEntry]] = {}
        added: List[str] = []
        dropped: set = set()
        for key, staged in batch.staged_items():
            previous = self._delta.get(key, _MISS)
            base_entry = self._base.get(key)
            pre_images[key] = previous if previous is not _MISS else base_entry
            if staged is None:
                if previous is _MISS:
                    if base_entry is not None:
                        self._delta[key] = None
                        added.append(key)
                        self._len -= 1
                elif previous is not None:
                    if base_entry is not None:
                        self._delta[key] = None
                    else:
                        del self._delta[key]
                        dropped.add(key)
                    self._len -= 1
                # previous is None: already a tombstone, deleting is a no-op.
            else:
                if previous is _MISS:
                    added.append(key)
                    if base_entry is None:
                        self._len += 1
                elif previous is None:
                    self._len += 1
                self._delta[key] = staged
            self._last_writer[key] = batch.block_number
        if added or dropped:
            self._delta_keys = reconcile_sorted_keys(self._delta_keys, added, dropped)
        self._record_commit(pre_images)
        return pre_images

    def last_writer_block(self, key: str) -> Optional[int]:
        """Block of the last batch-committed write of ``key`` (base-aware)."""
        block = self._last_writer.get(key)
        if block is not None:
            return block
        return self._base.last_writer_block(key)

    # ----------------------------------------------------------------- ranges
    def range(self, start_key: str, end_key: str) -> List[Tuple[str, StateEntry]]:
        """All ``(key, entry)`` pairs with ``start_key <= key < end_key``."""
        base_pairs = self._base.range(start_key, end_key)
        lo = bisect.bisect_left(self._delta_keys, start_key)
        hi = bisect.bisect_left(self._delta_keys, end_key)
        if lo == hi:
            return base_pairs
        return list(merge_sorted_overlay(base_pairs, self._delta_keys[lo:hi], self._delta))

    def scan(self, predicate: Callable[[str, Any], bool]) -> List[Tuple[str, StateEntry]]:
        """Full scan returning entries whose ``(key, value)`` satisfy ``predicate``."""
        return [(key, entry) for key, entry in self.items() if predicate(key, entry.value)]

    def items(self) -> Iterator[Tuple[str, StateEntry]]:
        """Iterate ``(key, entry)`` pairs in key order (lazy merge)."""
        return merge_sorted_overlay(self._base.items(), self._delta_keys, self._delta)

    def iter_keys(self) -> Iterator[str]:
        """Iterate all visible keys in sorted order without materializing them."""
        return (key for key, _entry in self.items())

    def keys(self) -> List[str]:
        """All visible keys in sorted order (a fresh list)."""
        return list(self.iter_keys())

    # ---------------------------------------------------------- rich queries
    def rich_query(self, selector: Any) -> List[Tuple[str, StateEntry]]:
        """Overlays never execute rich queries natively (see class docstring)."""
        raise UnsupportedFeatureError(
            "overlay state stores do not execute rich queries; endorsement "
            "replicas use get/put/delete/range operations only"
        )

    # ------------------------------------------------------------------ setup
    def populate(self, initial: Dict[str, Any]) -> None:
        """Load ``initial`` into the delta with the genesis version."""
        self._require_mutable("populate")
        for key, value in initial.items():
            if not isinstance(key, str) or not key:
                raise LedgerError(f"world state keys must be non-empty strings, got {key!r}")
            self._put_entry(key, StateEntry(value=value, version=GENESIS_VERSION))

    def snapshot_versions(self) -> Dict[str, Version]:
        """Mapping key -> version of the full visible state (an O(state) copy)."""
        return {key: entry.version for key, entry in self.items()}

    def copy(self) -> VersionedKVStore:
        """Materialize the visible state into a flat, independent store."""
        clone = VersionedKVStore(latency=self.latency)
        flattened = {
            key: StateEntry(value=entry.value, version=entry.version)
            for key, entry in self.items()
        }
        clone._entries = flattened
        clone._sorted_keys = list(flattened)
        return clone

    def overlay(self) -> "OverlayStateStore":
        """A further overlay stacked on this one (freeze ``self`` first)."""
        return OverlayStateStore(self)  # type: ignore[arg-type]


class EpochSnapshot:
    """The world state as of a past commit epoch.

    Built from the store's pre-image journal, the snapshot holds only the
    keys changed *after* the pinned epoch — O(changed-keys), not O(state).
    It subsumes both the full ``snapshot_versions()`` dict FabricSharp-style
    endorsement used to materialize (:meth:`get_version` is O(1) per key)
    and the pre-image overlay of the old lagged state view.

    A snapshot reads through to its live store, so it is only valid until
    that store's next batch commit: reading a snapshot after the store has
    advanced raises :class:`~repro.errors.LedgerError` instead of silently
    serving post-pin state.  Re-take the snapshot after each commit (exactly
    what :meth:`LaggedStateView.refresh` does).
    """

    __slots__ = ("store", "epoch", "_pre_images", "_sorted_keys", "_created_at_epoch")

    #: Snapshots are read views of replica state; like the overlays they are
    #: taken from, they never execute rich queries natively.
    supports_rich_queries = False

    def __init__(
        self,
        store: StateStore,
        epoch: int,
        pre_images: Dict[str, Optional[StateEntry]],
    ) -> None:
        self.store = store
        self.epoch = epoch
        self._pre_images = pre_images
        self._sorted_keys = sorted(pre_images)
        self._created_at_epoch = store.commit_epoch  # type: ignore[attr-defined]

    def _require_current(self) -> None:
        current = self.store.commit_epoch  # type: ignore[attr-defined]
        if current != self._created_at_epoch:
            raise LedgerError(
                f"stale epoch snapshot: taken at commit epoch {self._created_at_epoch}, "
                f"but the store has advanced to epoch {current}; re-take the snapshot"
            )

    def rich_query(self, selector: Any) -> List[Tuple[str, StateEntry]]:
        """Epoch snapshots do not execute rich queries."""
        raise UnsupportedFeatureError(
            "epoch snapshots do not execute rich queries; they serve "
            "get/range reads of a past commit epoch"
        )

    @property
    def empty(self) -> bool:
        """True when nothing changed after the pinned epoch."""
        return not self._pre_images

    @property
    def latency(self) -> DatabaseLatencyProfile:
        """Latency profile of the underlying store."""
        return self.store.latency

    # ------------------------------------------------------------------ reads
    def get(self, key: str) -> Optional[StateEntry]:
        """The entry of ``key`` at the pinned epoch (``None`` when absent)."""
        self._require_current()
        hit = self._pre_images.get(key, _MISS)
        if hit is not _MISS:
            return hit
        return self.store.get(key)

    def get_version(self, key: str) -> Optional[Version]:
        """The version of ``key`` at the pinned epoch, in O(1)."""
        entry = self.get(key)
        return entry.version if entry is not None else None

    def get_value(self, key: str) -> Optional[Any]:
        """The value of ``key`` at the pinned epoch."""
        entry = self.get(key)
        return entry.value if entry is not None else None

    def range(self, start_key: str, end_key: str) -> List[Tuple[str, StateEntry]]:
        """The range result as it read at the pinned epoch."""
        self._require_current()
        base_pairs = self.store.range(start_key, end_key)
        lo = bisect.bisect_left(self._sorted_keys, start_key)
        hi = bisect.bisect_left(self._sorted_keys, end_key)
        if lo == hi:
            return base_pairs
        return list(
            merge_sorted_overlay(base_pairs, self._sorted_keys[lo:hi], self._pre_images)
        )

    def items(self) -> Iterator[Tuple[str, StateEntry]]:
        """Iterate the full snapshot state in key order (lazy merge)."""
        self._require_current()
        return merge_sorted_overlay(
            self.store.items(),  # type: ignore[attr-defined]
            self._sorted_keys,
            self._pre_images,
        )

    def versions(self) -> Iterator[Tuple[str, Version]]:
        """Iterate ``(key, version)`` pairs of the snapshot state."""
        return ((key, entry.version) for key, entry in self.items())


class LaggedStateView:
    """World-state view whose snapshot lags behind freshly committed blocks.

    FabricSharp parallelises execution and validation using block snapshots
    taken at the start of the execution phase; the stale snapshots increase
    the chance of endorsement policy failures (paper Section 5.4.1).  The
    view pins an :class:`EpochSnapshot` one commit epoch behind the freshest
    state on every block commit and keeps serving it until a per-block,
    per-peer random refresh delay has elapsed, after which the freshly
    committed state becomes visible.
    """

    def __init__(self, store: StateStore, sim) -> None:
        self.store = store
        self.sim = sim
        self._snapshot: Optional[EpochSnapshot] = None
        self._visible_after = 0.0

    @property
    def latency(self) -> DatabaseLatencyProfile:
        """Latency profile of the underlying store."""
        return self.store.latency

    @property
    def supports_rich_queries(self) -> bool:
        """Mirrors the underlying store's native rich-query capability."""
        return self.store.supports_rich_queries

    def refresh(self, visible_after: float) -> None:
        """Pin the pre-commit epoch of the newest block until ``visible_after``."""
        epoch = max(0, self.store.commit_epoch - 1)  # type: ignore[attr-defined]
        self._snapshot = self.store.snapshot(epoch)  # type: ignore[attr-defined]
        self._visible_after = visible_after

    @property
    def state_token(self) -> Optional[int]:
        """The token of the state this view serves *now* (see
        :attr:`OverlayStateStore.state_token`).

        While stale that is the pinned snapshot's epoch — the state an
        in-sequence replica held one block ago is the state another holds
        until it applies that block — and the store's own token otherwise.
        ``None`` whenever the store's is, and while a stale view sits on a
        store with native rich queries: :meth:`rich_query` falls through to
        the live store, so one execution could read two epochs.
        """
        token = self.store.state_token  # type: ignore[attr-defined]
        if token is None or not self._stale:
            return token
        if self.store.supports_rich_queries:
            return None
        return self._snapshot.epoch

    @property
    def _stale(self) -> bool:
        return (
            self._snapshot is not None
            and not self._snapshot.empty
            and self.sim.now < self._visible_after
        )

    # -------------------------------------------------------- StateStore API
    def get(self, key: str) -> Optional[StateEntry]:
        """The entry under ``key`` as seen by the (possibly stale) snapshot."""
        if self._stale:
            return self._snapshot.get(key)
        return self.store.get(key)

    def get_version(self, key: str) -> Optional[Version]:
        """The version under ``key`` as seen by the (possibly stale) snapshot."""
        entry = self.get(key)
        return entry.version if entry is not None else None

    def get_value(self, key: str) -> Optional[Any]:
        """The value under ``key`` as seen by the (possibly stale) snapshot."""
        entry = self.get(key)
        return entry.value if entry is not None else None

    def range(self, start_key: str, end_key: str) -> List[Tuple[str, StateEntry]]:
        """Range scan against the (possibly stale) snapshot view."""
        if self._stale:
            return self._snapshot.range(start_key, end_key)
        return self.store.range(start_key, end_key)

    def rich_query(self, selector: Any) -> List[Tuple[str, StateEntry]]:
        """Rich queries fall back to the underlying store (FabricSharp does
        not support them)."""
        return self.store.rich_query(selector)
