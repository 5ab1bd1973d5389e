"""Unit tests for the copy-on-write state layer (repro.ledger.store)."""

from __future__ import annotations

import pytest

from repro.errors import ConfigurationError, LedgerError, UnsupportedFeatureError
from repro.ledger.couchdb import CouchDBStore
from repro.ledger.factory import make_state_store
from repro.ledger.kvstore import GENESIS_VERSION, Version, VersionedKVStore
from repro.ledger.leveldb import LevelDBStore
from repro.ledger.store import (
    EpochSnapshot,
    MutableStateStore,
    OverlayStateStore,
    StateStore,
    WriteBatch,
)


def populated_base(initial=None):
    base = VersionedKVStore()
    base.populate(initial if initial is not None else {"a": 1, "b": 2, "c": 3})
    base.freeze()
    return base


def committed(store, block_number, puts=(), deletes=()):
    batch = WriteBatch(block_number)
    for index, (key, value) in enumerate(puts):
        batch.put(key, value, Version(block_number, index))
    for key in deletes:
        batch.delete(key)
    return store.apply_batch(batch)


# ----------------------------------------------------------------- WriteBatch
def test_write_batch_last_write_per_key_wins():
    batch = WriteBatch(block_number=3)
    batch.put("k", 1, Version(3, 0))
    batch.put("k", 2, Version(3, 1))
    assert len(batch) == 1
    assert batch.staged("k").value == 2
    batch.delete("k")
    assert batch.staged("k") is None
    assert "k" in batch
    assert batch.staged("missing", "fallback") == "fallback"


def test_write_batch_rejects_invalid_keys():
    batch = WriteBatch(block_number=1)
    with pytest.raises(LedgerError):
        batch.put("", 1, Version(1, 0))


@pytest.mark.parametrize("key", ["", 7, None])
def test_write_batch_rejects_invalid_keys_on_delete(key):
    batch = WriteBatch(block_number=1)
    with pytest.raises(LedgerError, match="world state keys must be non-empty strings"):
        batch.delete(key)
    assert len(batch) == 0
    assert batch.sorted_keys() == []


def test_write_batch_merge_range_honors_tombstones():
    base = populated_base()
    batch = WriteBatch(block_number=1)
    batch.put("ab", 9, Version(1, 0))
    batch.delete("b")
    merged = batch.merge_range(base.range("a", "z"), "a", "z")
    assert [key for key, _entry in merged] == ["a", "ab", "c"]


# ---------------------------------------------------------------- freeze/base
def test_frozen_store_rejects_all_mutation():
    base = populated_base()
    with pytest.raises(LedgerError):
        base.put("x", 1, GENESIS_VERSION)
    with pytest.raises(LedgerError):
        base.delete("a")
    with pytest.raises(LedgerError):
        base.populate({"x": 1})
    with pytest.raises(LedgerError):
        base.apply_batch(WriteBatch(1))
    assert base.frozen


def test_overlay_is_cheap_and_reads_through_to_base():
    base = populated_base()
    overlay = base.overlay()
    assert isinstance(overlay, OverlayStateStore)
    assert overlay.base is base
    assert len(overlay) == 3
    assert overlay.get_value("b") == 2
    assert overlay.get_version("b") == GENESIS_VERSION
    assert overlay.delta_size == 0


def test_overlay_put_delete_shadow_the_base():
    base = populated_base()
    overlay = base.overlay()
    overlay.put("b", 99, Version(1, 0))
    overlay.delete("a")
    overlay.put("d", 4, Version(1, 1))
    assert overlay.get_value("b") == 99
    assert overlay.get_value("a") is None
    assert "a" not in overlay
    assert len(overlay) == 3  # -a +d
    assert overlay.keys() == ["b", "c", "d"]
    assert [key for key, _entry in overlay.range("a", "z")] == ["b", "c", "d"]
    # The base is untouched.
    assert base.get_value("b") == 2
    assert "a" in base


def test_overlay_delete_of_overlay_only_key_drops_the_delta_entry():
    base = populated_base()
    overlay = base.overlay()
    overlay.put("x", 1, Version(1, 0))
    assert overlay.delta_size == 1
    overlay.delete("x")
    assert overlay.delta_size == 0
    assert len(overlay) == 3
    overlay.delete("x")  # double delete is a no-op
    assert len(overlay) == 3


def test_two_overlays_over_one_base_diverge_independently():
    base = populated_base()
    left, right = base.overlay(), base.overlay()
    committed(left, 1, puts=[("a", "left")])
    committed(right, 1, puts=[("a", "right")], deletes=["c"])
    assert left.get_value("a") == "left"
    assert right.get_value("a") == "right"
    assert "c" in left and "c" not in right
    assert base.get_value("a") == 1


def test_overlay_batch_commit_bumps_epoch_and_last_writer():
    base = populated_base()
    overlay = base.overlay()
    assert overlay.commit_epoch == 0
    pre_images = committed(overlay, 7, puts=[("a", 10), ("new", 1)], deletes=["b"])
    assert overlay.commit_epoch == 1
    assert overlay.last_writer_block("a") == 7
    assert overlay.last_writer_block("b") == 7
    assert overlay.last_writer_block("c") is None
    assert pre_images["a"].value == 1
    assert pre_images["new"] is None
    assert pre_images["b"].value == 2


def test_overlay_copy_materializes_the_merged_state():
    base = populated_base()
    overlay = base.overlay()
    committed(overlay, 1, puts=[("d", 4)], deletes=["a"])
    flat = overlay.copy()
    assert isinstance(flat, VersionedKVStore)
    assert flat.keys() == ["b", "c", "d"]
    flat.put("zzz", 1, Version(9, 0))
    assert "zzz" not in overlay


def test_overlay_rejects_rich_queries_like_peer_replicas_always_did():
    base = CouchDBStore()
    base.populate({"a": {"f": 1}})
    base.freeze()
    overlay = base.overlay()
    assert base.supports_rich_queries
    assert not overlay.supports_rich_queries
    with pytest.raises(UnsupportedFeatureError):
        overlay.rich_query({"f": 1})


def test_stores_satisfy_the_state_store_protocol():
    base = populated_base()
    overlay = base.overlay()
    for store in (base, overlay, LevelDBStore(), CouchDBStore()):
        assert isinstance(store, StateStore)
        assert isinstance(store, MutableStateStore)


# ------------------------------------------------------------ epoch snapshots
def test_snapshot_serves_pre_images_at_o_changed_keys():
    store = VersionedKVStore()
    store.populate({"a": 1, "b": 2})
    committed(store, 1, puts=[("a", 10)])
    committed(store, 2, puts=[("a", 100), ("c", 3)], deletes=["b"])
    snap0 = store.snapshot(0)
    snap1 = store.snapshot(1)
    snap2 = store.snapshot(2)
    assert isinstance(snap0, EpochSnapshot)
    # Epoch 0: genesis state.
    assert snap0.get_value("a") == 1 and snap0.get_value("b") == 2
    assert snap0.get("c") is None
    assert snap0.changed_key_count == 3  # a, b, c changed since epoch 0
    # Epoch 1: first commit visible, second not.
    assert snap1.get_value("a") == 10 and snap1.get_value("b") == 2
    assert snap1.get("c") is None
    # Epoch 2 == live state; the snapshot overlays nothing.
    assert snap2.empty
    assert snap2.get_value("a") == 100 and snap2.get("b") is None
    assert [key for key, _entry in snap0.range("a", "z")] == ["a", "b"]
    assert [key for key, _entry in snap2.range("a", "z")] == ["a", "c"]


def test_snapshot_versions_iterator_matches_full_dict():
    store = VersionedKVStore()
    store.populate({"a": 1, "b": 2})
    committed(store, 1, puts=[("a", 10)])
    frozen_versions = store.snapshot_versions()
    assert dict(store.snapshot().versions()) == frozen_versions
    assert store.snapshot(0).get_version("a") == GENESIS_VERSION


def test_snapshot_goes_stale_after_the_next_commit():
    store = VersionedKVStore()
    store.populate({"a": 1})
    committed(store, 1, puts=[("a", 2)])
    snap = store.snapshot(0)
    assert snap.get_value("a") == 1
    committed(store, 2, puts=[("b", 1)])
    # Reading through a snapshot the store has advanced past must fail loudly
    # instead of silently serving post-pin state.
    with pytest.raises(LedgerError):
        snap.get("a")
    with pytest.raises(LedgerError):
        snap.range("a", "z")
    with pytest.raises(LedgerError):
        list(snap.items())
    # A re-taken snapshot serves the same pinned epoch correctly again.
    assert store.snapshot(1).get_value("a") == 2
    assert store.snapshot(1).get("b") is None


def test_snapshot_outside_journal_retention_raises():
    store = VersionedKVStore()
    store.populate({"a": 0})
    for block in range(1, VersionedKVStore.journal_retention + 3):
        committed(store, block, puts=[("a", block)])
    newest = store.commit_epoch
    assert store.snapshot(newest - VersionedKVStore.journal_retention) is not None
    with pytest.raises(LedgerError):
        store.snapshot(newest - VersionedKVStore.journal_retention - 1)
    with pytest.raises(LedgerError):
        store.snapshot(newest + 1)
    with pytest.raises(LedgerError):
        store.snapshot(-1)


# -------------------------------------------------------------------- factory
def test_make_state_store_accepts_strings_and_enum():
    from repro.network.config import DatabaseType

    assert isinstance(make_state_store("leveldb"), LevelDBStore)
    assert isinstance(make_state_store("COUCHDB"), CouchDBStore)
    assert isinstance(make_state_store(DatabaseType.COUCHDB), CouchDBStore)
    with pytest.raises(ConfigurationError):
        make_state_store("postgres")
