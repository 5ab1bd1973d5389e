"""Unit tests for the chaincode stub (execution-phase API)."""

from __future__ import annotations

import pytest

from repro.chaincode.api import ChaincodeStub
from repro.errors import LedgerError, UnsupportedFeatureError
from repro.ledger.couchdb import CouchDBStore
from repro.ledger.kvstore import GENESIS_VERSION
from repro.ledger.leveldb import LevelDBStore


@pytest.fixture
def populated_store():
    store = LevelDBStore()
    store.populate({f"k{i}": {"value": i} for i in range(10)})
    return store


def test_get_state_records_read_with_version(populated_store):
    stub = ChaincodeStub(populated_store)
    value = stub.get_state("k3")
    assert value == {"value": 3}
    assert stub.rwset.reads[0].key == "k3"
    assert stub.rwset.reads[0].version == GENESIS_VERSION


def test_get_state_of_missing_key_records_nil_version(populated_store):
    stub = ChaincodeStub(populated_store)
    assert stub.get_state("missing") is None
    assert stub.rwset.reads[0].version is None


def test_put_state_buffers_write_without_touching_store(populated_store):
    stub = ChaincodeStub(populated_store)
    stub.put_state("k3", {"value": 99})
    assert populated_store.get_value("k3") == {"value": 3}
    assert stub.rwset.writes[0].key == "k3"
    assert not stub.rwset.writes[0].is_delete


def test_del_state_buffers_deletion(populated_store):
    stub = ChaincodeStub(populated_store)
    stub.del_state("k4")
    assert stub.rwset.writes[0].is_delete
    assert "k4" in populated_store


def test_last_write_per_key_wins(populated_store):
    stub = ChaincodeStub(populated_store)
    stub.put_state("k1", 1)
    stub.put_state("k1", 2)
    stub.del_state("k1")
    assert len(stub.rwset.writes) == 1
    assert stub.rwset.writes[0].is_delete


def test_range_read_records_keys_and_enables_phantom_detection(populated_store):
    stub = ChaincodeStub(populated_store)
    results = stub.get_state_by_range("k2", "k5")
    assert [key for key, _value in results] == ["k2", "k3", "k4"]
    range_read = stub.rwset.range_reads[0]
    assert range_read.phantom_detection
    assert not range_read.rich_query
    assert range_read.keys == ["k2", "k3", "k4"]


def test_range_read_carries_the_token_the_stub_was_given(populated_store):
    stub = ChaincodeStub(populated_store, state_token=5)
    stub.get_state_by_range("k2", "k5")
    stub.get_state_by_range("k7", "k9")
    assert [scan.state_token for scan in stub.rwset.range_reads] == [5, 5]


def test_a_stub_without_a_token_leaves_range_reads_unstamped(populated_store):
    stub = ChaincodeStub(populated_store)
    stub.get_state_by_range("k2", "k5")
    assert stub.rwset.range_reads[0].state_token is None


@pytest.mark.parametrize("key", ["", 7, None])
def test_put_state_rejects_a_key_that_is_not_a_non_empty_string(populated_store, key):
    stub = ChaincodeStub(populated_store)
    with pytest.raises(LedgerError, match="world state keys must be non-empty strings"):
        stub.put_state(key, 1)
    assert stub.rwset.writes == []


@pytest.mark.parametrize("key", ["", 7, None])
def test_del_state_rejects_a_key_that_is_not_a_non_empty_string(populated_store, key):
    stub = ChaincodeStub(populated_store)
    with pytest.raises(LedgerError, match="world state keys must be non-empty strings"):
        stub.del_state(key)
    assert stub.rwset.writes == []


def test_rich_query_requires_couchdb(populated_store):
    stub = ChaincodeStub(populated_store)
    with pytest.raises(UnsupportedFeatureError):
        stub.get_query_result({"value": 3})


def test_rich_query_on_couchdb_disables_phantom_detection():
    store = CouchDBStore()
    store.populate({"a": {"kind": "x"}, "b": {"kind": "y"}})
    stub = ChaincodeStub(store)
    results = stub.get_query_result({"kind": "x"})
    assert [key for key, _value in results] == ["a"]
    assert not stub.rwset.range_reads[0].phantom_detection
    assert stub.rwset.range_reads[0].rich_query


def test_execution_cost_accumulates_per_operation(populated_store):
    stub = ChaincodeStub(populated_store)
    stub.get_state("k1")
    stub.put_state("k1", 2)
    stub.get_state_by_range("k0", "k3")
    assert stub.execution_cost > 0
    assert set(stub.db_call_latency) == {"GetState", "PutState", "GetRange"}
    assert stub.execution_cost == pytest.approx(sum(stub.db_call_latency.values()))


def test_couchdb_operations_cost_more_than_leveldb():
    couch = CouchDBStore()
    couch.populate({"a": 1})
    level = LevelDBStore()
    level.populate({"a": 1})
    couch_stub = ChaincodeStub(couch)
    level_stub = ChaincodeStub(level)
    couch_stub.get_state("a")
    level_stub.get_state("a")
    assert couch_stub.execution_cost > level_stub.execution_cost


def test_operation_counters(populated_store):
    stub = ChaincodeStub(populated_store)
    stub.get_state("k1")
    stub.get_state("k2")
    stub.put_state("k3", 1)
    stub.get_state_by_range("k0", "k2")
    assert stub.read_count == 2
    assert len(stub.rwset.writes) == 1
    assert len(stub.rwset.range_reads) == 1
