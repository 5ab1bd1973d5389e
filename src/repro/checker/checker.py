"""Streaming isolation checker over the committed transaction history.

The checker certifies (or refutes, with a concrete witness) two isolation
levels for every channel of a run, straight from the lifecycle event stream:

* **Serializability** — the start-ordered serialization graph (Adya's DSG)
  over the committed transactions is acyclic.  Nodes are committed
  transactions; edges are the three classic dependencies, keyed by the
  :class:`~repro.ledger.kvstore.Version` each committed write installs
  (``Version(block, tx)`` — the per-key version order *is* the commit order):

  - ``ww`` — the installer of version ``v_i`` of a key to the installer of
    the next version ``v_{i+1}``;
  - ``wr`` — the installer of a version to every transaction that read it;
  - ``rw`` (anti-dependency) — a reader of version ``v_i`` to the installer
    of ``v_{i+1}``, the write that overwrote what the reader saw.  Reads
    that observed *absence* (a nil version) anti-depend on the installer
    that ended the absence interval they read from.

* **Snapshot isolation** — following the black-box SI checking reduction
  (arxiv 2301.07313, after Cerone & Gotsman), SI holds iff
  ``G_SI = dep ∪ (rw ; dep)`` is acyclic, where ``dep = ww ∪ wr``: every
  anti-dependency must be immediately "absorbed" by a dependency before it
  can contribute to a cycle.  The checker maintains ``G_SI`` alongside the
  DSG by composing each new ``rw`` edge with the dependency edges already
  leaving its target (and each new dependency edge with the ``rw`` edges
  already entering its source).  A composed edge that starts and ends at the
  same transaction is itself an SI violation.  Because every ``G_SI`` cycle
  expands to a DSG cycle, the verdicts are monotone: a serializable history
  always certifies SI as well.

Both graphs are maintained *incrementally* as COMMITTED events stream in —
per-key version chains resolve each read to its installer, eagerly emit the
anti-dependency to the chain successor, and patch the affected edges when a
version arrives out of order — with online cycle detection through the
Pearce-Kelly structure in :mod:`repro.checker.graph`.  A read whose version
is never installed by any committed transaction (a read *from an aborted or
phantom writer*) refutes read atomicity outright and is reported as a
``dangling-read`` witness.

Witnesses record the offending transaction cycle as the exact sequence of
dependency edges (source, target, kind, key); composed ``G_SI`` edges are
expanded back into their underlying ``rw`` + dependency pair so every edge of
a witness is a real single dependency the brute-force oracle can re-derive.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.checker.config import CheckerConfig
from repro.checker.graph import IncrementalDAG
from repro.ledger.kvstore import Version
from repro.lifecycle.events import LifecycleBus, LifecycleEventType

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.ledger.block import Transaction

__all__ = [
    "AnomalyWitness",
    "ChannelChecker",
    "ChannelIsolation",
    "IsolationChecker",
    "IsolationReport",
    "WitnessEdge",
    "merge_isolation_reports",
]

#: Isolation levels a witness refutes, strongest requirement first.
LEVEL_SERIALIZABLE = "serializable"
LEVEL_SNAPSHOT_ISOLATION = "snapshot-isolation"
LEVEL_READ_ATOMICITY = "read-atomicity"

#: Verdict strings surfaced on reports, metrics and the CLI.
VERDICT_SERIALIZABLE = "CERTIFIED-SERIALIZABLE"
VERDICT_SI = "CERTIFIED-SI"
VERDICT_REFUTED = "REFUTED"


@dataclass(frozen=True)
class WitnessEdge:
    """One dependency edge of an anomaly witness cycle."""

    source: str
    target: str
    #: ``"ww"``, ``"wr"`` or ``"rw"``.
    kind: str
    #: The key whose version chain induced the dependency.
    key: str

    def as_dict(self) -> Dict[str, str]:
        return {"source": self.source, "target": self.target, "kind": self.kind, "key": self.key}

    def __str__(self) -> str:
        return f"{self.source} -{self.kind}[{self.key}]-> {self.target}"


@dataclass(frozen=True)
class AnomalyWitness:
    """A concrete refutation: an edge cycle, or a read from a phantom writer."""

    #: The strongest isolation level this witness refutes (see ``LEVEL_*``).
    level: str
    #: ``"cycle"`` or ``"dangling-read"``.
    kind: str
    #: The offending dependency cycle, edge by edge (empty for dangling reads).
    cycle: Tuple[WitnessEdge, ...] = ()
    description: str = ""

    def as_dict(self) -> Dict[str, object]:
        return {
            "level": self.level,
            "kind": self.kind,
            "cycle": [edge.as_dict() for edge in self.cycle],
            "description": self.description,
        }


@dataclass
class ChannelIsolation:
    """Verdict and evidence for one channel's committed history."""

    channel: Optional[int]
    committed: int = 0
    aborted: int = 0
    reads: int = 0
    writes: int = 0
    #: Dependency edges by kind (``si-composed`` counts ``rw ; dep`` edges).
    edges: Dict[str, int] = field(default_factory=dict)
    serializable_violations: int = 0
    si_violations: int = 0
    dangling_reads: int = 0
    #: Retained witnesses, capped at the configured ``witness_limit``.
    anomalies: Tuple[AnomalyWitness, ...] = ()

    @property
    def serializable(self) -> bool:
        return self.serializable_violations == 0 and self.dangling_reads == 0

    @property
    def snapshot_isolation(self) -> bool:
        return self.si_violations == 0 and self.dangling_reads == 0

    @property
    def verdict(self) -> str:
        if self.serializable:
            return VERDICT_SERIALIZABLE
        if self.snapshot_isolation:
            return VERDICT_SI
        return VERDICT_REFUTED

    def as_dict(self) -> Dict[str, object]:
        return {
            "channel": self.channel,
            "verdict": self.verdict,
            "serializable": self.serializable,
            "snapshot_isolation": self.snapshot_isolation,
            "committed": self.committed,
            "aborted": self.aborted,
            "reads": self.reads,
            "writes": self.writes,
            "edges": dict(self.edges),
            "serializable_violations": self.serializable_violations,
            "si_violations": self.si_violations,
            "dangling_reads": self.dangling_reads,
            "anomalies": [witness.as_dict() for witness in self.anomalies],
        }


@dataclass
class IsolationReport:
    """The run-level verdict: one :class:`ChannelIsolation` per channel."""

    channels: List[ChannelIsolation] = field(default_factory=list)

    @property
    def serializable(self) -> bool:
        return all(channel.serializable for channel in self.channels)

    @property
    def snapshot_isolation(self) -> bool:
        return all(channel.snapshot_isolation for channel in self.channels)

    @property
    def verdict(self) -> str:
        if self.serializable:
            return VERDICT_SERIALIZABLE
        if self.snapshot_isolation:
            return VERDICT_SI
        return VERDICT_REFUTED

    def certifies(self, level: str) -> bool:
        """Whether every channel certifies at ``level`` (a ``LEVEL_*`` value)."""
        if level == LEVEL_SERIALIZABLE:
            return self.serializable
        if level == LEVEL_SNAPSHOT_ISOLATION:
            return self.snapshot_isolation
        raise ValueError(f"unknown isolation level {level!r}")

    @property
    def anomaly_count(self) -> int:
        return sum(
            channel.serializable_violations + channel.dangling_reads
            for channel in self.channels
        )

    def summary(self) -> Dict[str, object]:
        """JSON-friendly digest for metrics, CLI output and fingerprints."""
        return {
            "verdict": self.verdict,
            "serializable": self.serializable,
            "snapshot_isolation": self.snapshot_isolation,
            "committed": sum(channel.committed for channel in self.channels),
            "anomalies": self.anomaly_count,
            "channels": [channel.as_dict() for channel in self.channels],
        }


def merge_isolation_reports(
    parts: Iterable[Optional[IsolationReport]],
) -> Optional[IsolationReport]:
    """Combine per-channel reports into one run-level report.

    Returns ``None`` when any part is missing (checking was not enabled on
    every slice), so a partial certification is never presented as a verdict.
    """
    merged: List[ChannelIsolation] = []
    for part in parts:
        if part is None:
            return None
        merged.extend(part.channels)
    return IsolationReport(channels=merged)


class _Entry:
    """One installed version on a key's chain."""

    __slots__ = ("version", "node", "is_delete", "readers")

    def __init__(self, version: Version, node: str, is_delete: bool) -> None:
        self.version = version
        self.node = node
        self.is_delete = is_delete
        #: Transactions that read this version (or, for a tombstone, the
        #: absence interval it opens) — the sources of ``rw`` edges to the
        #: chain successor.
        self.readers: List[str] = []


class _Chain:
    """The version chain of one key: installs in version order."""

    __slots__ = ("versions", "entries", "head_readers")

    def __init__(self) -> None:
        self.versions: List[Version] = []
        self.entries: List[_Entry] = []
        #: Readers of the initial state (genesis version or pre-install
        #: absence) — anti-dependent on the first real installer.
        self.head_readers: List[str] = []


class ChannelChecker:
    """Incremental DSG / ``G_SI`` maintenance for one channel's history.

    Feed committed transactions through :meth:`observe_commit` (any order
    works; the eager edges are patched when a version arrives out of order),
    count terminal failures with :meth:`observe_abort`, then call
    :meth:`finalize` once for the :class:`ChannelIsolation` verdict.
    """

    def __init__(
        self, channel: Optional[int] = None, witness_limit: int = CheckerConfig.witness_limit
    ) -> None:
        self._channel = channel
        self._witness_limit = witness_limit
        self._chains: Dict[str, _Chain] = {}
        #: Reads awaiting their installer: (key, version) -> reader nodes.
        self._pending: Dict[Tuple[str, Version], List[str]] = {}
        self._dsg = IncrementalDAG()
        self._gsi = IncrementalDAG()
        #: Edge -> (kind, key) of its first sighting, for witness rendering.
        self._dsg_labels: Dict[Tuple[str, str], Tuple[str, str]] = {}
        self._gsi_labels: Dict[Tuple[str, str], Tuple] = {}
        #: Composition indexes: rw edges into a node / dep edges out of it.
        self._rw_edges: Set[Tuple[str, str]] = set()
        self._dep_edges: Set[Tuple[str, str]] = set()
        self._rw_in: Dict[str, List[Tuple[str, str]]] = {}
        self._dep_out: Dict[str, List[Tuple[str, str, str]]] = {}
        self._edge_counts = {"ww": 0, "wr": 0, "rw": 0, "si-composed": 0}
        self._committed = 0
        self._aborted = 0
        self._reads = 0
        self._writes = 0
        self._serializable_violations = 0
        self._si_violations = 0
        self._dangling_reads = 0
        self._anomalies: List[AnomalyWitness] = []
        self._report: Optional[ChannelIsolation] = None

    # ------------------------------------------------------------- observation
    def observe_commit(self, tx: "Transaction") -> None:
        """Fold one committed transaction into the serialization graphs."""
        rwset = tx.rwset
        if rwset is None or tx.block_number is None:
            return
        node = tx.tx_id
        position = Version(tx.block_number, tx.tx_index)
        self._committed += 1
        self._dsg.add_node(node)
        self._gsi.add_node(node)
        # Reads first (deduplicated — point and range reads may overlap), so
        # the transaction's own writes below resolve against the pre-state.
        seen: Set[Tuple[str, Optional[Version]]] = set()
        for key, version in rwset.all_reads():
            if (key, version) in seen:
                continue
            seen.add((key, version))
            self._read(node, position, key, version)
        self._reads += len(seen)
        # One installed version per written key (the last write wins, exactly
        # like the validator's staged write batch).
        writes: Dict[str, bool] = {}
        for write in rwset.writes:
            writes[write.key] = bool(write.is_delete)
        for key, is_delete in writes.items():
            self._install(node, position, key, is_delete)
        self._writes += len(writes)

    def observe_abort(self) -> None:
        """Count one terminally failed transaction (never enters the graphs)."""
        self._aborted += 1

    # ----------------------------------------------------------- version chains
    def _chain(self, key: str) -> _Chain:
        chain = self._chains.get(key)
        if chain is None:
            chain = self._chains[key] = _Chain()
        return chain

    def _read(self, node: str, position: Version, key: str, version: Optional[Version]) -> None:
        if version is not None and version.block_number > 0:
            chain = self._chains.get(key)
            if chain is not None:
                index = bisect_right(chain.versions, version) - 1
                if index >= 0 and chain.versions[index] == version:
                    self._attach_reader(chain, index, node, key)
                    return
            # The installer has not committed (yet): park the read.  Still
            # unresolved at finalize, it is a read from a phantom writer.
            self._pending.setdefault((key, version), []).append(node)
            return
        chain = self._chain(key)
        if version is None:
            # Absence read: resolve to the latest absence interval at or
            # before the reader's own commit position — a tombstone if the
            # key was deleted, the initial state otherwise.
            index = bisect_right(chain.versions, position) - 1
            while index >= 0 and not chain.entries[index].is_delete:
                index -= 1
            if index >= 0:
                self._attach_reader(chain, index, node, key)
                return
        # Genesis version or pre-install absence: an initial-state read.
        chain.head_readers.append(node)
        if chain.entries:
            self._rw_edge(node, chain.entries[0].node, key)

    def _attach_reader(self, chain: _Chain, index: int, node: str, key: str) -> None:
        entry = chain.entries[index]
        self._dep_edge(entry.node, node, "wr", key)
        entry.readers.append(node)
        if index + 1 < len(chain.entries):
            self._rw_edge(node, chain.entries[index + 1].node, key)

    def _install(self, node: str, position: Version, key: str, is_delete: bool) -> None:
        chain = self._chain(key)
        index = bisect_right(chain.versions, position)
        if index > 0:
            previous = chain.entries[index - 1]
            self._dep_edge(previous.node, node, "ww", key)
            readers = previous.readers
        else:
            readers = chain.head_readers
        for reader in readers:
            self._rw_edge(reader, node, key)
        chain.versions.insert(index, position)
        chain.entries.insert(index, _Entry(position, node, is_delete))
        if index + 1 < len(chain.entries):
            # Out-of-order install: the chain successor already exists, so the
            # forward ww edge is emitted here instead of by a later install.
            self._dep_edge(node, chain.entries[index + 1].node, "ww", key)
        for reader in self._pending.pop((key, position), ()):
            self._attach_reader(chain, index, reader, key)

    # ------------------------------------------------------------------- edges
    def _dep_edge(self, source: str, target: str, kind: str, key: str) -> None:
        if source == target:
            return
        self._dsg_insert(source, target, kind, key)
        if (source, target) in self._dep_edges:
            return
        self._dep_edges.add((source, target))
        self._dep_out.setdefault(source, []).append((target, kind, key))
        # G_SI: the dependency itself, plus its composition with every rw
        # edge already entering the source.
        self._gsi_insert(source, target, ("dep", kind, key))
        for reader, read_key in self._rw_in.get(source, ()):
            self._gsi_insert(reader, target, ("composed", source, read_key, kind, key))

    def _rw_edge(self, source: str, target: str, key: str) -> None:
        if source == target:
            return
        self._dsg_insert(source, target, "rw", key)
        if (source, target) in self._rw_edges:
            return
        self._rw_edges.add((source, target))
        self._rw_in.setdefault(target, []).append((source, key))
        # G_SI: compose with every dependency already leaving the target.
        for successor, kind, dep_key in self._dep_out.get(target, ()):
            self._gsi_insert(source, successor, ("composed", target, key, kind, dep_key))

    def _dsg_insert(self, source: str, target: str, kind: str, key: str) -> None:
        edge = (source, target)
        if edge in self._dsg_labels:
            return
        self._dsg_labels[edge] = (kind, key)
        self._edge_counts[kind] += 1
        cycle = self._dsg.add_edge(source, target)
        if cycle is not None:
            self._serializable_violations += 1
            self._record_cycle(LEVEL_SERIALIZABLE, source, cycle, gsi=False)

    def _gsi_insert(self, source: str, target: str, label: Tuple) -> None:
        if source == target:
            # A composed rw;dep edge closing on its own source is already a
            # G_SI cycle: reader -rw-> via -dep-> reader.
            self._si_violations += 1
            if len(self._anomalies) < self._witness_limit:
                _, via, read_key, dep_kind, dep_key = label
                cycle = (
                    WitnessEdge(source, via, "rw", read_key),
                    WitnessEdge(via, source, dep_kind, dep_key),
                )
                self._anomalies.append(
                    AnomalyWitness(
                        level=LEVEL_SNAPSHOT_ISOLATION,
                        kind="cycle",
                        cycle=cycle,
                        description=_describe_cycle(cycle),
                    )
                )
            return
        edge = (source, target)
        if edge in self._gsi_labels:
            return
        self._gsi_labels[edge] = label
        if label[0] == "composed":
            self._edge_counts["si-composed"] += 1
        cycle = self._gsi.add_edge(source, target)
        if cycle is not None:
            self._si_violations += 1
            self._record_cycle(LEVEL_SNAPSHOT_ISOLATION, source, cycle, gsi=True)

    # --------------------------------------------------------------- witnesses
    def _record_cycle(self, level: str, source: str, path: Sequence[str], gsi: bool) -> None:
        if len(self._anomalies) >= self._witness_limit:
            return
        # ``path`` is [target, ..., source] along existing edges; the refused
        # edge source -> target closes the cycle.
        pairs = [(source, path[0])] + list(zip(path, path[1:]))
        edges: List[WitnessEdge] = []
        for u, v in pairs:
            if gsi:
                label = self._gsi_labels[(u, v)]
                if label[0] == "dep":
                    edges.append(WitnessEdge(u, v, label[1], label[2]))
                else:
                    _, via, read_key, dep_kind, dep_key = label
                    edges.append(WitnessEdge(u, via, "rw", read_key))
                    edges.append(WitnessEdge(via, v, dep_kind, dep_key))
            else:
                kind, key = self._dsg_labels[(u, v)]
                edges.append(WitnessEdge(u, v, kind, key))
        cycle = tuple(edges)
        self._anomalies.append(
            AnomalyWitness(
                level=level, kind="cycle", cycle=cycle, description=_describe_cycle(cycle)
            )
        )

    # ---------------------------------------------------------------- verdicts
    def finalize(self) -> ChannelIsolation:
        """Resolve leftover pending reads and freeze the channel verdict."""
        if self._report is None:
            for (key, version), readers in sorted(self._pending.items()):
                for reader in readers:
                    self._dangling_reads += 1
                    if len(self._anomalies) < self._witness_limit:
                        self._anomalies.append(
                            AnomalyWitness(
                                level=LEVEL_READ_ATOMICITY,
                                kind="dangling-read",
                                description=(
                                    f"transaction {reader} read version {version} of "
                                    f"key {key!r}, which no committed transaction installed"
                                ),
                            )
                        )
            self._pending.clear()
            self._report = ChannelIsolation(
                channel=self._channel,
                committed=self._committed,
                aborted=self._aborted,
                reads=self._reads,
                writes=self._writes,
                edges={kind: count for kind, count in self._edge_counts.items() if count},
                serializable_violations=self._serializable_violations,
                si_violations=self._si_violations,
                dangling_reads=self._dangling_reads,
                anomalies=tuple(self._anomalies),
            )
        return self._report


def _describe_cycle(cycle: Tuple[WitnessEdge, ...]) -> str:
    return " , ".join(str(edge) for edge in cycle)


class IsolationChecker:
    """Bus adapter: one :class:`ChannelChecker` on a channel slice's bus.

    Handles COMMITTED and ABORTED only; locally answered read-only
    queries (committed with no block) never reach the ledger and are skipped.
    Its handlers never touch the simulator or any RNG stream, so an enabled
    checker leaves the run bit-identical — the same invariant the
    observability subsystem relies on.
    """

    def __init__(
        self, bus: LifecycleBus, config: CheckerConfig, channel: Optional[int] = None
    ) -> None:
        self.checker = ChannelChecker(channel=channel, witness_limit=config.witness_limit)
        bus.handle(LifecycleEventType.COMMITTED, self._on_committed)
        bus.handle(LifecycleEventType.ABORTED, self._on_aborted)

    def _on_committed(self, tx: "Transaction") -> None:
        if tx.block_number is None or tx.rwset is None:
            return
        self.checker.observe_commit(tx)

    def _on_aborted(self, tx: "Transaction") -> None:
        self.checker.observe_abort()

    def report(self) -> IsolationReport:
        """The run-level report for this (single-channel) slice."""
        return IsolationReport(channels=[self.checker.finalize()])
