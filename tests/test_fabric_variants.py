"""Unit tests for the variant registry, conflict graphs and variant behaviours."""

from __future__ import annotations

import networkx as nx
import pytest

from repro.errors import ConfigurationError, UnsupportedFeatureError
from repro.fabric import (
    Fabric14,
    FabricPlusPlus,
    FabricSharp,
    Streamchain,
    available_variants,
    build_dependency_graph,
    create_variant,
    remove_cycles,
    serialization_order,
)
from repro.fabric.conflictgraph import reorder_batch
from repro.ledger.block import Block, Transaction, ValidationCode
from repro.ledger.kvstore import GENESIS_VERSION, Version
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet
from repro.network.config import NetworkConfig


def make_tx(tx_id, reads=(), writes=(), range_reads=()):
    tx = Transaction(tx_id=tx_id, client_name="c", chaincode_name="t", function="f")
    tx.rwset = ReadWriteSet(reads=list(reads), writes=list(writes), range_reads=list(range_reads))
    for endorsement in range(2):
        tx.endorsements.append(None)  # only the count matters for VSCC cost
    return tx


def rmw(tx_id, key):
    return make_tx(tx_id, reads=[KeyRead(key, GENESIS_VERSION)], writes=[KeyWrite(key, 1)])


# ------------------------------------------------------------------- registry
def test_registry_contains_all_four_systems():
    assert set(available_variants()) == {"fabric-1.4", "fabric++", "streamchain", "fabricsharp"}


@pytest.mark.parametrize(
    "alias, expected",
    [
        ("Fabric 1.4", Fabric14),
        ("fabric", Fabric14),
        ("Fabric++", FabricPlusPlus),
        ("fabricpp", FabricPlusPlus),
        ("STREAMCHAIN", Streamchain),
        ("Fabric#", FabricSharp),
        ("fabricsharp", FabricSharp),
    ],
)
def test_create_variant_aliases(alias, expected):
    assert isinstance(create_variant(alias), expected)


def test_create_variant_takes_a_registered_name_only():
    with pytest.raises(ConfigurationError):
        create_variant("hyperledger-besu")
    # An instance would be shared by every channel that names it.
    with pytest.raises(ConfigurationError):
        create_variant(Fabric14())


def test_policy_requires_configuration():
    variant = Fabric14()
    with pytest.raises(ConfigurationError):
        _ = variant.policy
    variant.configure(NetworkConfig(cluster="C1"))
    assert variant.policy.min_signatures() == 2


# -------------------------------------------------------------- conflict graph
def test_dependency_graph_edges_point_from_reader_to_writer():
    reader = make_tx("r", reads=[KeyRead("x", GENESIS_VERSION)])
    writer = make_tx("w", writes=[KeyWrite("x", 1)])
    graph, edges = build_dependency_graph([reader, writer])
    assert edges == 1
    assert 1 in graph[0]
    assert 0 not in graph[1]


def test_dependency_graph_counts_range_reads():
    reader = make_tx(
        "r", range_reads=[RangeRead("a", "z", reads=[KeyRead("x", GENESIS_VERSION)])]
    )
    writer = make_tx("w", writes=[KeyWrite("x", 1)])
    _graph, edges = build_dependency_graph([reader, writer])
    assert edges == 1


def test_remove_cycles_produces_dag():
    txs = [rmw("a", "k"), rmw("b", "k"), rmw("c", "k")]
    graph, _ = build_dependency_graph(txs)
    aborted = remove_cycles(graph)
    assert len(aborted) == 2
    assert nx.is_directed_acyclic_graph(nx.DiGraph(graph))


def test_serialization_order_respects_dependencies():
    reader = make_tx("r", reads=[KeyRead("x", GENESIS_VERSION)])
    writer = make_tx("w", writes=[KeyWrite("x", 1)])
    graph, _ = build_dependency_graph([writer, reader])  # writer first in arrival order
    order = serialization_order(graph)
    assert order.index(1) < order.index(0)  # the reader (index 1) must precede the writer


def test_reorder_batch_moves_readers_before_writers():
    writer = make_tx("w", writes=[KeyWrite("x", 1)])
    reader = make_tx("r", reads=[KeyRead("x", GENESIS_VERSION)])
    serialized, aborted, edges = reorder_batch([writer, reader])
    assert aborted == []
    assert edges == 1
    assert serialized[0] is reader
    assert serialized[1] is writer


def test_reorder_batch_aborts_cycles():
    first = make_tx("a", reads=[KeyRead("x", GENESIS_VERSION)], writes=[KeyWrite("y", 1)])
    second = make_tx("b", reads=[KeyRead("y", GENESIS_VERSION)], writes=[KeyWrite("x", 1)])
    serialized, aborted, _edges = reorder_batch([first, second])
    assert len(aborted) == 1
    assert len(serialized) == 1


# ------------------------------------------------------------------- variants
def test_fabricpp_prepare_block_marks_aborts_and_reorders():
    config = NetworkConfig(cluster="C1")
    variant = FabricPlusPlus()
    variant.configure(config)

    class StubOrderer:
        def __init__(self):
            self.config = config

    writer = make_tx("w", writes=[KeyWrite("x", 1)])
    reader = make_tx("r", reads=[KeyRead("x", GENESIS_VERSION)])
    cyc_a = make_tx("a", reads=[KeyRead("p", GENESIS_VERSION)], writes=[KeyWrite("q", 1)])
    cyc_b = make_tx("b", reads=[KeyRead("q", GENESIS_VERSION)], writes=[KeyWrite("p", 1)])
    block = Block(number=1, transactions=[writer, reader, cyc_a, cyc_b])
    cost = variant.prepare_block(block, StubOrderer())
    assert cost > 0
    assert block.reordered
    aborted = [tx for tx in block.transactions if tx.validation_code is ValidationCode.ABORTED_BY_REORDERING]
    assert len(aborted) == 1
    survivors = [tx for tx in block.transactions if tx.validation_code is None]
    assert survivors.index(reader) < survivors.index(writer)


def test_fabricpp_reorder_cost_grows_with_dependencies():
    config = NetworkConfig(cluster="C1")
    variant = FabricPlusPlus()
    variant.configure(config)

    class StubOrderer:
        def __init__(self):
            self.config = config

    small = Block(number=1, transactions=[rmw("a", "k1"), rmw("b", "k2")])
    dense = Block(number=2, transactions=[rmw(f"t{i}", "hot") for i in range(6)])
    assert variant.prepare_block(dense, StubOrderer()) > variant.prepare_block(small, StubOrderer())


def test_streamchain_configure_forces_streaming():
    variant = Streamchain()
    config = variant.configure(NetworkConfig(cluster="C1", block_size=100))
    assert config.block_size == 1


def test_streamchain_ramdisk_reduces_validation_time():
    variant = Streamchain()
    with_ram = variant.configure(NetworkConfig(cluster="C1", use_ram_disk=True))
    without_ram = NetworkConfig(cluster="C1", use_ram_disk=False)
    tx = rmw("t", "k")
    tx.validation_code = ValidationCode.VALID
    block = Block(number=1, transactions=[tx])
    assert variant.validation_service_time(block, with_ram) < variant.validation_service_time(
        block, without_ram
    )


def test_validation_time_higher_on_couchdb_than_leveldb():
    variant = Fabric14()
    couch = NetworkConfig(cluster="C1", database="couchdb")
    level = NetworkConfig(cluster="C1", database="leveldb")
    variant.configure(couch)
    tx = rmw("t", "k")
    tx.validation_code = ValidationCode.VALID
    block = Block(number=1, transactions=[tx])
    assert variant.validation_service_time(block, couch) > variant.validation_service_time(
        block, level
    )


def test_ordering_time_scales_with_block_size_and_peer_count():
    variant = Fabric14()
    config = NetworkConfig(cluster="C1")
    variant.configure(config)
    small = Block(number=1, transactions=[rmw("a", "k")])
    large = Block(number=2, transactions=[rmw(f"t{i}", f"k{i}") for i in range(50)])
    assert variant.ordering_service_time(large, config, 4) > variant.ordering_service_time(
        small, config, 4
    )
    assert variant.ordering_service_time(small, config, 32) > variant.ordering_service_time(
        small, config, 4
    )


def test_streamchain_ordering_time_grows_with_peer_count():
    variant = Streamchain()
    config = variant.configure(NetworkConfig(cluster="C2"))
    block = Block(number=1, transactions=[rmw("t", "k")])
    assert variant.ordering_service_time(block, config, 32) > variant.ordering_service_time(
        block, config, 4
    )


# ------------------------------------------------------------------ FabricSharp
class StubValidator:
    def __init__(self, versions):
        self.versions = versions

    def current_version(self, key):
        return self.versions.get(key)


class StubSharpOrderer:
    def __init__(self, config, versions):
        self.config = config
        self.validator = StubValidator(versions)
        self.early_aborted = []
        self.sim = type("S", (), {"now": 0.0})()

    def abort_early(self, tx, code, reason=None):
        tx.validation_code = code
        if reason is not None:
            tx.abort_reason = reason
        tx.committed_at = self.sim.now
        self.early_aborted.append(tx)


def test_fabricsharp_aborts_stale_reads_early():
    config = NetworkConfig(cluster="C1")
    variant = FabricSharp()
    variant.configure(config)
    orderer = StubSharpOrderer(config, {"k": Version(3, 0)})
    stale = make_tx("stale", reads=[KeyRead("k", GENESIS_VERSION)])
    fresh = make_tx("fresh", reads=[KeyRead("k", Version(3, 0))])
    assert not variant.on_transaction_arrival(stale, orderer)
    assert variant.on_transaction_arrival(fresh, orderer)


def test_fabricsharp_blocks_reads_of_in_flight_writes():
    config = NetworkConfig(cluster="C1")
    variant = FabricSharp()
    variant.configure(config)
    orderer = StubSharpOrderer(config, {"k": GENESIS_VERSION})
    writer = make_tx("w", reads=[KeyRead("k", GENESIS_VERSION)], writes=[KeyWrite("k", 1)])
    block = Block(number=1, transactions=[writer])
    variant.prepare_block(block, orderer)
    assert variant.in_flight_write_count == 1
    reader = make_tx("r", reads=[KeyRead("k", GENESIS_VERSION)])
    assert not variant.on_transaction_arrival(reader, orderer)
    variant.after_block_validated(block, orderer)
    assert variant.in_flight_write_count == 0
    assert variant.on_transaction_arrival(reader, orderer)


def test_fabricsharp_lets_endorsement_mismatches_through():
    config = NetworkConfig(cluster="C1")
    variant = FabricSharp()
    variant.configure(config)
    orderer = StubSharpOrderer(config, {"k": Version(5, 0)})
    mismatch = make_tx("m", reads=[KeyRead("k", GENESIS_VERSION)])
    mismatch.endorsement_mismatch = True
    assert variant.on_transaction_arrival(mismatch, orderer)


def test_fabricsharp_rejects_range_queries():
    config = NetworkConfig(cluster="C1")
    variant = FabricSharp()
    variant.configure(config)
    orderer = StubSharpOrderer(config, {})
    tx = make_tx("range", range_reads=[RangeRead("a", "z")])
    with pytest.raises(UnsupportedFeatureError):
        variant.on_transaction_arrival(tx, orderer)


def test_fabricsharp_prepare_block_drops_cycle_members_from_block():
    config = NetworkConfig(cluster="C1")
    variant = FabricSharp()
    variant.configure(config)
    orderer = StubSharpOrderer(config, {})
    first = make_tx("a", reads=[KeyRead("x", GENESIS_VERSION)], writes=[KeyWrite("y", 1)])
    second = make_tx("b", reads=[KeyRead("y", GENESIS_VERSION)], writes=[KeyWrite("x", 1)])
    block = Block(number=1, transactions=[first, second])
    variant.prepare_block(block, orderer)
    assert len(block.transactions) == 1
    assert len(orderer.early_aborted) == 1
    assert orderer.early_aborted[0].validation_code is ValidationCode.EARLY_ABORT


def test_variant_flags():
    assert Fabric14.supports_range_queries
    assert not FabricSharp.supports_range_queries
    assert FabricSharp.endorse_from_snapshot
    assert not Fabric14.endorse_from_snapshot
    assert Fabric14().describe() == "Fabric 1.4"
