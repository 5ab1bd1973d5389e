"""Reference conflict-graph reordering on networkx (the former product module).

A test oracle, like ``failure_oracle.py`` and ``reference_engine.py`` beside
it: the Fabric++ / FabricSharp reorder as it was written on networkx,
verbatim, sharing no code with :mod:`repro.fabric.conflictgraph`.  It
recomputes the strongly connected components of the whole block after every
round of victims and sorts with ``nx.lexicographical_topological_sort``;
``test_property_conflictgraph.py`` asserts that the product's successor-set
version serializes, aborts and counts edges exactly as this one does, on
random batches and on every block of a Fabric++ and a FabricSharp run.

Both Fabric++ and FabricSharp build a conflict graph over the transactions of a
batch: there is an edge ``reader -> writer`` whenever one transaction reads a
key that another transaction writes, meaning the reader must be ordered
*before* the writer for both to remain serializable.  Cycles cannot be
serialized; they are broken by aborting transactions — the minimum feedback
vertex set problem is NP-hard, so (like Fabric++) a greedy approximation is
used that repeatedly removes the most-connected transaction of a strongly
connected component.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Set, Tuple

import networkx as nx

from repro.ledger.block import Transaction


def build_dependency_graph(transactions: Sequence[Transaction]) -> Tuple[nx.DiGraph, int]:
    """Build the conflict graph of a batch of transactions.

    Nodes are transaction indexes into ``transactions``; an edge ``i -> j``
    means transaction ``i`` reads a key that transaction ``j`` writes, so ``i``
    must precede ``j``.  Returns the graph and the number of dependency edges
    (the edge count drives the reordering cost model — range queries over large
    key sets create very dense graphs, which is why Fabric++ struggles with the
    DV and SCM chaincodes in Section 5.2.3).
    """
    graph = nx.DiGraph()
    graph.add_nodes_from(range(len(transactions)))
    writers: Dict[str, List[int]] = {}
    for index, tx in enumerate(transactions):
        if tx.rwset is None:
            continue
        for key in tx.rwset.write_keys():
            writers.setdefault(key, []).append(index)
    edge_count = 0
    for index, tx in enumerate(transactions):
        if tx.rwset is None:
            continue
        for key in tx.rwset.read_keys():
            for writer in writers.get(key, ()):
                if writer == index:
                    continue
                if not graph.has_edge(index, writer):
                    graph.add_edge(index, writer)
                    edge_count += 1
    return graph, edge_count


def remove_cycles(graph: nx.DiGraph) -> Set[int]:
    """Greedy minimum-feedback-vertex-set approximation.

    Repeatedly finds a non-trivial strongly connected component and removes the
    node with the highest total degree inside it, until the graph is acyclic.
    Returns the set of removed (aborted) transaction indexes.  The input graph
    is modified in place.
    """
    aborted: Set[int] = set()
    while True:
        cyclic_components = [
            component
            for component in nx.strongly_connected_components(graph)
            if len(component) > 1
            or any(graph.has_edge(node, node) for node in component)
        ]
        if not cyclic_components:
            return aborted
        for component in cyclic_components:
            subgraph = graph.subgraph(component)
            victim = max(
                component,
                key=lambda node: (subgraph.in_degree(node) + subgraph.out_degree(node), -node),
            )
            graph.remove_node(victim)
            aborted.add(victim)


def serialization_order(graph: nx.DiGraph) -> List[int]:
    """A serializable order of the remaining transactions (topological order).

    Ties are broken by the original index so the reordering is deterministic
    and stays as close to the arrival order as the dependencies allow.
    """
    return list(nx.lexicographical_topological_sort(graph))


def reorder_batch(transactions: Sequence[Transaction]) -> Tuple[List[Transaction], List[Transaction], int]:
    """Reorder a batch so readers precede writers; abort cycle members.

    Returns ``(serialized, aborted, edge_count)`` where ``serialized`` is the
    new transaction order and ``aborted`` are the transactions removed to break
    cycles.
    """
    graph, edge_count = build_dependency_graph(transactions)
    aborted_indexes = remove_cycles(graph)
    order = serialization_order(graph)
    serialized = [transactions[index] for index in order]
    aborted = [transactions[index] for index in sorted(aborted_indexes)]
    return serialized, aborted, edge_count
