"""Conflict-graph reordering (Fabric++ / FabricSharp): properties and the oracle.

The properties hold of any correct reorder: the graph left is acyclic, the
order respects it, the batch is partitioned, the schedule is serializable.
The differential tests hold the product to ``conflictgraph_oracle.py`` (the
same reorder on networkx): equal serialized order, equal aborted transactions
and equal edge count — on random batches, on hand-built shapes (a self-loop,
two disjoint cycles, a ring too long for a recursive search) and on every block
of a Fabric++ SCM run and a FabricSharp EHR run.
"""

from __future__ import annotations

import conflictgraph_oracle as oracle
import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import ExperimentConfig, run_repetition
from repro.fabric import fabricpp, fabricsharp
from repro.fabric.conflictgraph import (
    build_dependency_graph,
    remove_cycles,
    reorder_batch,
    serialization_order,
)
from repro.ledger.block import Transaction
from repro.ledger.kvstore import GENESIS_VERSION
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet
from repro.network.config import NetworkConfig
from repro.workload.workloads import uniform_workload

keys = st.sampled_from(["a", "b", "c", "d", "e"])


@st.composite
def transaction_batches(draw):
    count = draw(st.integers(min_value=0, max_value=12))
    batch = []
    for index in range(count):
        reads = [KeyRead(draw(keys), GENESIS_VERSION) for _ in range(draw(st.integers(0, 3)))]
        writes = [KeyWrite(draw(keys), index) for _ in range(draw(st.integers(0, 3)))]
        tx = Transaction(tx_id=f"tx{index}", client_name="c", chaincode_name="t", function="f")
        tx.rwset = ReadWriteSet(reads=reads, writes=writes)
        batch.append(tx)
    return batch


@given(transaction_batches())
@settings(max_examples=80, deadline=None)
def test_remove_cycles_always_yields_a_dag(batch):
    graph, _edges = build_dependency_graph(batch)
    remove_cycles(graph)
    assert nx.is_directed_acyclic_graph(nx.DiGraph(graph))


@given(transaction_batches())
@settings(max_examples=80, deadline=None)
def test_serialization_order_respects_every_remaining_edge(batch):
    graph, _edges = build_dependency_graph(batch)
    remove_cycles(graph)
    order = serialization_order(graph)
    position = {node: rank for rank, node in enumerate(order)}
    for source, successors in graph.items():
        for target in successors:
            assert position[source] < position[target]


@given(transaction_batches())
@settings(max_examples=80, deadline=None)
def test_reorder_batch_partitions_the_batch(batch):
    serialized, aborted, edge_count = reorder_batch(batch)
    assert len(serialized) + len(aborted) == len(batch)
    assert {tx.tx_id for tx in serialized} | {tx.tx_id for tx in aborted} == {
        tx.tx_id for tx in batch
    }
    assert edge_count >= 0


@given(transaction_batches())
@settings(max_examples=60, deadline=None)
def test_reordered_schedule_is_serializable(batch):
    """No surviving transaction reads a key previously written in the schedule.

    This is the exact guarantee Fabric++ needs: executing the serialized order
    against a snapshot can no longer produce intra-block MVCC conflicts.
    """
    serialized, _aborted, _edges = reorder_batch(batch)
    written: set[str] = set()
    for tx in serialized:
        assert not (tx.rwset.read_keys() & written)
        written |= tx.rwset.write_keys()


@given(transaction_batches())
@settings(max_examples=60, deadline=None)
def test_conflict_free_batches_are_never_aborted_or_reordered_arbitrarily(batch):
    graph, edges = build_dependency_graph(batch)
    if edges == 0:
        serialized, aborted, _ = reorder_batch(batch)
        assert aborted == []
        assert [tx.tx_id for tx in serialized] == [tx.tx_id for tx in batch]


# ------------------------------------------------------------ against the oracle
def outcome(result):
    """What a reorder decides, by transaction id: order, aborts, edge count."""
    serialized, aborted, edge_count = result
    return [tx.tx_id for tx in serialized], [tx.tx_id for tx in aborted], edge_count


def assert_reorders_as_the_oracle(batch):
    assert outcome(reorder_batch(batch)) == outcome(oracle.reorder_batch(batch))


def make_tx(index, reads=(), writes=(), range_reads=()):
    tx = Transaction(tx_id=f"tx{index}", client_name="c", chaincode_name="t", function="f")
    tx.rwset = ReadWriteSet(reads=list(reads), writes=list(writes), range_reads=list(range_reads))
    return tx


@st.composite
def mixed_batches(draw):
    """Up to 40 transactions over 1-12 keys: point and range reads, some without a read/write set."""
    pool = [f"k{index:02d}" for index in range(draw(st.integers(1, 12)))]
    key = st.sampled_from(pool)
    batch = []
    for index in range(draw(st.integers(0, 40))):
        if draw(st.integers(0, 9)) == 0:
            tx = make_tx(index)
            tx.rwset = None
        else:
            scanned = draw(st.lists(st.lists(key, max_size=6), max_size=2))
            tx = make_tx(
                index,
                reads=[KeyRead(draw(key), GENESIS_VERSION) for _ in range(draw(st.integers(0, 3)))],
                writes=[KeyWrite(draw(key), index) for _ in range(draw(st.integers(0, 3)))],
                range_reads=[
                    RangeRead(pool[0], pool[-1], reads=[KeyRead(k, GENESIS_VERSION) for k in scan])
                    for scan in scanned
                ],
            )
        batch.append(tx)
    return batch


@given(mixed_batches())
@settings(max_examples=250, deadline=None)
def test_reorder_batch_matches_the_networkx_oracle(batch):
    assert_reorders_as_the_oracle(batch)


def test_a_self_loop_counts_twice_toward_the_victim_degree():
    # Component {0, 1, 2, 3}: the self-loop makes node 0's degree 4, tying with
    # nodes 1 and 2, so the lowest index goes first — counted once, node 1
    # would, and the aborts would be {0, 1, 2} instead of {0, 2}.
    edges = {0: {0, 1}, 1: {0, 2}, 2: {1, 3}, 3: {2}}
    graph = {node: set(successors) for node, successors in edges.items()}
    reference = nx.DiGraph(edges)
    assert remove_cycles(graph) == oracle.remove_cycles(reference) == {0, 2}
    assert nx.DiGraph(graph).edges == reference.edges
    assert serialization_order(graph) == oracle.serialization_order(reference) == [1, 3]


def test_two_disjoint_cycles_lose_one_transaction_each():
    def swap(index, read, write):
        return make_tx(index, reads=[KeyRead(read, GENESIS_VERSION)], writes=[KeyWrite(write, index)])

    batch = [swap(0, "x", "y"), swap(1, "p", "q"), swap(2, "y", "x"), make_tx(3), swap(4, "q", "p")]
    _serialized, aborted, _edges = reorder_batch(batch)
    assert len(aborted) == 2
    assert_reorders_as_the_oracle(batch)


def test_a_ring_of_three_thousand_transactions_is_one_component():
    # Transaction i reads key i and writes key i + 1: one strongly connected
    # component, deeper than the interpreter's recursion limit.
    size = 3_000
    batch = [
        make_tx(i, reads=[KeyRead(f"k{i}", GENESIS_VERSION)], writes=[KeyWrite(f"k{(i + 1) % size}", i)])
        for i in range(size)
    ]
    serialized, aborted, edge_count = reorder_batch(batch)
    assert (len(serialized), [tx.tx_id for tx in aborted], edge_count) == (size - 1, ["tx0"], size)
    assert_reorders_as_the_oracle(batch)


def _run_cell(variant: str, chaincode: str) -> ExperimentConfig:
    return ExperimentConfig(
        variant=variant,
        workload=uniform_workload(chaincode),
        network=NetworkConfig(cluster="C1", database="leveldb", block_size=50),
        arrival_rate=150.0,
        duration=3.0,
        zipf_skew=1.0,
        seed=31,
    )


@pytest.mark.parametrize(
    "module, config",
    [(fabricpp, _run_cell("fabric++", "SCM")), (fabricsharp, _run_cell("fabricsharp", "EHR"))],
    ids=["fabric++/SCM", "fabricsharp/EHR"],
)
def test_every_block_of_a_run_reorders_as_the_oracle_does(monkeypatch, module, config):
    product = module.reorder_batch
    blocks = []

    def compared(transactions):
        result = product(transactions)
        blocks.append((outcome(result), outcome(oracle.reorder_batch(transactions))))
        return result

    monkeypatch.setattr(module, "reorder_batch", compared)
    run_repetition(config, 0)
    assert len(blocks) > 1
    assert sum(len(got[1]) for got, _expected in blocks) > 0  # cycles were broken
    for number, (got, expected) in enumerate(blocks):
        assert got == expected, f"{config.variant} block {number} reorders differently"
