"""Conflict graphs, cycle removal and serialization (Fabric++ / FabricSharp).

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

import heapq
from typing import Dict, List, Sequence, Set, Tuple

from repro.ledger.block import Transaction

#: Transaction index -> indexes of the transactions it must precede.
ConflictGraph = Dict[int, Set[int]]


def build_dependency_graph(transactions: Sequence[Transaction]) -> Tuple[ConflictGraph, int]:
    """Build the conflict graph of a batch of transactions.

    Nodes are transaction indexes into ``transactions``; an edge ``i -> j``
    means transaction ``i`` reads a key that transaction ``j`` writes, so ``i``
    must precede ``j``.  Returns the graph and the number of dependency edges
    (the edge count drives the reordering cost model — range queries over large
    key sets create very dense graphs, which is why Fabric++ struggles with the
    DV and SCM chaincodes in Section 5.2.3).
    """
    graph: ConflictGraph = {index: set() for index in range(len(transactions))}
    writers: Dict[str, List[int]] = {}
    for index, tx in enumerate(transactions):
        if tx.rwset is None:
            continue
        for key in tx.rwset.write_keys():
            writers.setdefault(key, []).append(index)
    for index, tx in enumerate(transactions):
        if tx.rwset is None:
            continue
        successors = graph[index]
        # Range scans read far more keys than a block writes: probe with those.
        for key in tx.rwset.read_keys().intersection(writers):
            successors.update(writers[key])
        successors.discard(index)
    return graph, sum(map(len, graph.values()))


def _cyclic_components(graph: ConflictGraph, nodes: Set[int]) -> List[Set[int]]:
    """Strongly connected components of ``graph`` on ``nodes`` that hold a cycle.

    Tarjan's algorithm on an explicit stack (a block can be thousands of
    transactions deep); a finished node's number becomes ``len(nodes)``.
    """
    number: Dict[int, int] = {}
    low: Dict[int, int] = {}
    stack: List[int] = []
    cyclic: List[Set[int]] = []
    for root in nodes:
        if root in number:
            continue
        number[root] = low[root] = len(number)
        stack.append(root)
        work = [(root, iter(graph[root]))]
        while work:
            node, successors = work[-1]
            for successor in successors:
                if successor not in nodes:
                    continue
                if successor not in number:
                    number[successor] = low[successor] = len(number)
                    stack.append(successor)
                    work.append((successor, iter(graph[successor])))
                    break
                if number[successor] < low[node]:
                    low[node] = number[successor]
            else:
                work.pop()
                if work and low[node] < low[work[-1][0]]:
                    low[work[-1][0]] = low[node]
                if low[node] == number[node]:
                    component = set()
                    while node not in component:
                        member = stack.pop()
                        number[member] = len(nodes)
                        component.add(member)
                    if len(component) > 1 or node in graph[node]:
                        cyclic.append(component)
    return cyclic


def remove_cycles(graph: ConflictGraph) -> Set[int]:
    """Greedy minimum-feedback-vertex-set approximation.

    Repeatedly finds a non-trivial strongly connected component and removes the
    node with the highest total degree inside it, until the graph is acyclic.
    Returns the set of removed (aborted) transaction indexes.  The input graph
    is modified in place.  A cycle through a component lies inside it: only
    the rest of a broken component is searched again.
    """
    aborted: Set[int] = set()
    pending = _cyclic_components(graph, set(graph))
    while pending:
        component = pending.pop()
        degree = dict.fromkeys(component, 0)
        for node in component:
            inside = graph[node] & component
            degree[node] += len(inside)
            for successor in inside:
                degree[successor] += 1
        victim = max(component, key=lambda node: (degree[node], -node))
        aborted.add(victim)
        component.discard(victim)
        pending.extend(_cyclic_components(graph, component))
    for victim in aborted:
        del graph[victim]
    for successors in graph.values():
        successors -= aborted
    return aborted


def serialization_order(graph: ConflictGraph) -> List[int]:
    """A serializable order of the remaining transactions (topological order).

    Ties are broken by the original index so the reordering is deterministic
    and stays as close to the arrival order as the dependencies allow (Kahn's
    algorithm, lowest ready index first).
    """
    indegree = dict.fromkeys(graph, 0)
    for successors in graph.values():
        for successor in successors:
            indegree[successor] += 1
    ready = [node for node, count in indegree.items() if count == 0]
    heapq.heapify(ready)
    order: List[int] = []
    while ready:
        node = heapq.heappop(ready)
        order.append(node)
        for successor in graph[node]:
            indegree[successor] -= 1
            if indegree[successor] == 0:
                heapq.heappush(ready, successor)
    if len(order) != len(graph):
        raise ValueError("the conflict graph still contains a cycle")
    return order


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
