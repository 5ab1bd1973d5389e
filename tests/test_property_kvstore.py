"""Property-based tests for the versioned key-value store (hypothesis)."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ledger.kvstore import Version, VersionedKVStore, reconcile_sorted_keys

keys = st.text(alphabet="abcdef", min_size=1, max_size=4)
values = st.integers(min_value=0, max_value=1000)


@st.composite
def operations(draw):
    """A random sequence of put/delete operations with increasing versions."""
    count = draw(st.integers(min_value=0, max_value=40))
    ops = []
    for index in range(count):
        op = draw(st.sampled_from(["put", "delete"]))
        key = draw(keys)
        value = draw(values)
        ops.append((op, key, value, Version(1, index)))
    return ops


def apply_to_model(ops):
    model = {}
    for op, key, value, version in ops:
        if op == "put":
            model[key] = (value, version)
        else:
            model.pop(key, None)
    return model


def apply_to_store(ops):
    store = VersionedKVStore()
    for op, key, value, version in ops:
        if op == "put":
            store.put(key, value, version)
        else:
            store.delete(key)
    return store


@given(operations())
@settings(max_examples=60, deadline=None)
def test_store_matches_dict_model(ops):
    store = apply_to_store(ops)
    model = apply_to_model(ops)
    assert len(store) == len(model)
    assert store.keys() == sorted(model)
    for key, (value, version) in model.items():
        assert store.get_value(key) == value
        assert store.get_version(key) == version


@given(operations(), keys, keys)
@settings(max_examples=60, deadline=None)
def test_range_matches_model_filter(ops, low, high):
    start, end = min(low, high), max(low, high)
    store = apply_to_store(ops)
    model = apply_to_model(ops)
    expected = sorted(key for key in model if start <= key < end)
    assert [key for key, _entry in store.range(start, end)] == expected


@given(operations())
@settings(max_examples=40, deadline=None)
def test_keys_are_always_sorted_and_unique(ops):
    store = apply_to_store(ops)
    listed = store.keys()
    assert listed == sorted(listed)
    assert len(listed) == len(set(listed))


@given(operations())
@settings(max_examples=40, deadline=None)
def test_copy_equals_original_and_is_independent(ops):
    store = apply_to_store(ops)
    clone = store.copy()
    assert clone.keys() == store.keys()
    for key in store.keys():
        assert clone.get_version(key) == store.get_version(key)
    clone.put("zzzz", 1, Version(9, 0))
    assert "zzzz" not in store


@given(st.dictionaries(keys, values, max_size=30))
@settings(max_examples=40, deadline=None)
def test_populate_matches_bulk_dict(initial):
    store = VersionedKVStore()
    store.populate(initial)
    assert len(store) == len(initial)
    assert store.keys() == sorted(initial)
    for key, value in initial.items():
        assert store.get_value(key) == value


@st.composite
def reconcile_cases(draw, bisect_regime):
    """A sorted key list and a batch (removed keys, new keys) of one size regime.

    The per-key bisect regime needs ``(new + removed) * 16 < len(keys)``; the
    other regime is everything else.
    """
    present = sorted(draw(st.sets(keys, min_size=17 if bisect_regime else 0, max_size=80)))
    limit = (len(present) - 1) // 16 if bisect_regime else None
    removed = draw(st.sets(st.sampled_from(present), max_size=limit)) if present else set()
    needed = 0 if bisect_regime else -(-len(present) // 16) - len(removed)
    new = draw(
        st.lists(
            keys.filter(lambda key: key not in present),
            unique=True,
            min_size=max(0, needed),
            max_size=None if limit is None else limit - len(removed),
        )
    )
    return present, removed, new


@pytest.mark.parametrize("bisect_regime", [True, False], ids=["bisect", "sort"])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_reconcile_sorted_keys_folds_a_batch_in_both_regimes(bisect_regime, data):
    present, removed, new = data.draw(reconcile_cases(bisect_regime))
    assert ((len(new) + len(removed)) * 16 < len(present)) == bisect_regime
    result = reconcile_sorted_keys(list(present), list(new), set(removed))
    assert result == sorted((set(present) - removed) | set(new))
