"""The golden corpus: every pinned value, the cells that produce it, and the one gate.

``corpus.json`` next to this module maps ``"<cell>/<part>"`` to what the
current tree must produce for that part of that cell, bit for bit: canonical
JSON where the part is small (floats by ``repr``, dictionaries in the order the
product builds them), and where it is large a 16-hex digest per row in record
order — per transaction keyed ``(submitted_at, tx_id)``, per block keyed by its
number, per drawn batch or workload stream keyed by what it is — next to the
whole-record SHA-256 the part used to be pinned by.

:data:`PRODUCERS` holds one producer per key; ``scripts/regen_goldens.py``
writes the corpus from them.  A gate (:func:`assert_pinned`) compares a part
with its entry through one typed diff (:func:`recursive_diff`) and fails naming
the cell, the part, the first diverging path and both values.  Every mean is
exactly rounded (``math.fsum``), so every interpreter ``src/`` runs on writes
the same bytes.  This module imports no pytest, so it runs on any of them.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
import random
import tempfile
from pathlib import Path
from typing import Callable, Dict, List, Tuple

from repro.bench.experiments import EXPERIMENTS, QUICK_SCALE, regenerate
from repro.bench.harness import ExperimentConfig, ExperimentResult, run_experiment
from repro.bench.runner import ExperimentRunner
from repro.channels.topology import ChannelTopology, ShardedKeyDistribution
from repro.checker.config import CheckerConfig
from repro.checker.history import history_document
from repro.core.analyzer import LedgerAnalyzer
from repro.core.fingerprint import record_fingerprint
from repro.faults.spec import FaultConfig
from repro.lifecycle.pipeline import build_network
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.observability.export import dumps, metrics_document, write_chrome_trace
from repro.observability.observer import ObservabilityData
from repro.sim.shard import ExecutionConfig
from repro.workload.distributions import make_distribution
from repro.workload.workloads import synthetic_workload, uniform_workload

CORPUS_PATH = Path(__file__).with_name("corpus.json")


# ------------------------------------------------------------ canonical form
def canonical(value):
    """``value`` as JSON data that round-trips exactly (floats by ``repr``)."""
    if dataclasses.is_dataclass(value):
        fields = dataclasses.fields(value)
        return {field.name: canonical(getattr(value, field.name)) for field in fields}
    if isinstance(value, dict):
        return {
            str(key.value if isinstance(key, enum.Enum) else key): canonical(item)
            for key, item in value.items()
        }
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if isinstance(value, float):
        return repr(value)
    return value


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def row_digest(row) -> str:
    """The short digest a large part keeps per row."""
    return sha256(dumps(row))[:16]


# ----------------------------------------------------------------- the diff
class ChangeType(enum.Enum):
    ADDED = "added"
    REMOVED = "removed"
    UPDATED = "updated"


@dataclasses.dataclass(frozen=True)
class Change:
    type: ChangeType
    old: object = None
    new: object = None


def recursive_diff(old, new, path: Tuple = ()) -> Dict[Tuple, Change]:
    """Every difference between two JSON values, keyed by its path, in document order.

    A key or list index present on one side only is ``ADDED`` / ``REMOVED``;
    a scalar that differs in value or type is ``UPDATED``.  Key order is part
    of a value: two mappings with the same keys in another order are one
    ``UPDATED`` change at their own path, old and new being the key lists.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        changes: Dict[Tuple, Change] = {}
        for key, item in old.items():
            if key in new:
                changes.update(recursive_diff(item, new[key], path + (key,)))
            else:
                changes[path + (key,)] = Change(ChangeType.REMOVED, old=item)
        for key, item in new.items():
            if key not in old:
                changes[path + (key,)] = Change(ChangeType.ADDED, new=item)
        if not changes and list(old) != list(new):
            changes[path] = Change(ChangeType.UPDATED, list(old), list(new))
        return changes
    if isinstance(old, list) and isinstance(new, list):
        changes = {}
        for index, (before, after) in enumerate(zip(old, new)):
            changes.update(recursive_diff(before, after, path + (index,)))
        for index in range(len(new), len(old)):
            changes[path + (index,)] = Change(ChangeType.REMOVED, old=old[index])
        for index in range(len(old), len(new)):
            changes[path + (index,)] = Change(ChangeType.ADDED, new=new[index])
        return changes
    if type(old) is not type(new) or old != new:
        return {path: Change(ChangeType.UPDATED, old, new)}
    return {}


def describe(cell: str, part: str, changes: Dict[Tuple, Change]) -> str:
    """The failure message of a gate: cell, part, and the first five changes with both values."""
    lines = [f"{cell} / {part}: {len(changes)} change(s) against the corpus"]
    for path, change in list(changes.items())[:5]:
        where = " / ".join(str(step) for step in path) or "(the whole part)"
        if change.type is ChangeType.ADDED:
            lines.append(f"  {where}: produced {change.new!r}, not in the corpus")
        elif change.type is ChangeType.REMOVED:
            lines.append(f"  {where}: pinned {change.old!r}, not produced")
        else:
            lines.append(f"  {where}: pinned {change.old!r}, produced {change.new!r}")
    if len(changes) > 5:
        lines.append(f"  ... and {len(changes) - 5} more")
    return "\n".join(lines)


# ----------------------------------------------------------------- the gate
def key(cell: str, part: str) -> str:
    return f"{cell}/{part}"


@functools.lru_cache(maxsize=1)
def load() -> dict:
    return json.loads(CORPUS_PATH.read_text())


def assert_pinned(cell: str, part: str, actual) -> None:
    """Fail, naming the first diverging path and both values, unless ``actual`` is pinned."""
    changes = recursive_diff(load()[key(cell, part)], canonical(actual))
    if changes:
        raise AssertionError(describe(cell, part, changes))


# -------------------------------------------------------------------- cells
def build(config: ExperimentConfig, record_chain: bool = False):
    return build_network(
        config=config.network,
        chaincode=config.workload.chaincode,
        chaincode_kwargs=config.workload.chaincode_kwargs,
        variant=config.variant,
        seed=config.seed,
        record_chain=record_chain,
    )


def run(network, config: ExperimentConfig):
    return network.run(
        mix=config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=make_distribution(config.zipf_skew),
        workload_name=config.workload.name,
    )


#: The four variant families of the paper's evaluation, at one channel and at
#: four (the sharded path, with cross-channel traffic): ``lifecycle/`` cells.
VARIANTS = ("fabric-1.4", "fabric++", "streamchain", "fabricsharp")
CHANNEL_COUNTS = (1, 4)
#: The ten scalar metrics a lifecycle cell pins, with its failure counts and cell hash.
GOLDEN_METRICS = (
    "submitted_transactions",
    "committed_transactions",
    "blocks",
    "average_block_fill",
    "average_latency",
    "committed_throughput",
    "successful_throughput",
    "orderer_utilization",
    "validation_utilization",
    "endorsement_utilization",
)


def golden_config(variant: str, channels: int) -> ExperimentConfig:
    """The small configuration of the cell ``lifecycle/<variant>/channels=<n>``."""
    return ExperimentConfig(
        variant=variant,
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            channels=channels,
            # A cross-channel fraction on the sharded cells keeps the
            # two-phase coordinator's abort path inside the contract.
            cross_channel_rate=0.1 if channels > 1 else 0.0,
        ),
        arrival_rate=120.0,
        duration=4.0,
        zipf_skew=1.0,
        repetitions=1,
        seed=7,
    )


def golden_metrics(config: ExperimentConfig) -> dict:
    """What a lifecycle cell pins of ``config``'s run (part ``metrics``)."""
    metrics = run_experiment(config).analyses[0].metrics
    return canonical(
        {
            "cell_hash": config.cell_hash(),
            **{name: getattr(metrics, name) for name in GOLDEN_METRICS},
            "failures": metrics.failure_report.as_dict(),
        }
    )


def pin_cell(variant, workload, cluster, arrival_rate, seed, **network) -> ExperimentConfig:
    """A three-second cell on the given cluster, LevelDB, blocks of ten."""
    return ExperimentConfig(
        variant=variant,
        workload=workload,
        network=NetworkConfig(cluster=cluster, database="leveldb", block_size=10, **network),
        arrival_rate=arrival_rate,
        duration=3.0,
        zipf_skew=1.0,
        seed=seed,
    )


#: The single-channel cells whose recorded chains are pinned (``pins/<name>``).
PIN_CELLS: Dict[str, ExperimentConfig] = {
    "fabric-1.4/EHR/C1": pin_cell(
        "fabric-1.4", uniform_workload("EHR", patients=40), "C1", 160.0, 7
    ),
    "fabric++/SCM/C2": pin_cell("fabric++", uniform_workload("SCM"), "C2", 120.0, 11),
    "fabricsharp/UH": pin_cell(
        "fabricsharp", synthetic_workload("UH", include_range=False), "C1", 140.0, 13
    ),
    "streamchain/DRM": pin_cell("streamchain", uniform_workload("DRM"), "C1", 80.0, 17),
    "DV/no-read-only+client-check": pin_cell(
        "fabric-1.4",
        uniform_workload("DV"),
        "C1",
        110.0,
        23,
        submit_read_only=False,
        client_side_check=True,
    ),
    # Faults, jittered retries under a rate cap, exports and the checker.
    "chaos/C2": pin_cell(
        "fabric-1.4",
        uniform_workload("EHR", patients=60),
        "C2",
        220.0,
        19,
        faults=FaultConfig(
            peer_crash_rate=0.05,
            endorser_slowdown_rate=0.1,
            orderer_outages=((0.8, 0.4),),
            partitions=((0, 2.0, 0.2),),
            endorsement_loss_rate=0.01,
        ),
        retry=RetryConfig(policy="jittered", max_retries=3, rate_cap=50.0),
        observability=ObservabilityConfig(trace=True, metrics=True),
        checker=CheckerConfig(enabled=True),
    ),
}


def chaos_audit_cell(execution: ExecutionConfig = ExecutionConfig()) -> ExperimentConfig:
    """A chaos-audit-shaped cell: 4 coupled channels, faults, retries, exports, checker."""
    return ExperimentConfig(
        variant="fabric-1.4",
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(
            cluster="C1",
            orgs=2,
            peers_per_org=2,
            clients=2,
            block_size=10,
            database="leveldb",
            channels=4,
            cross_channel_rate=0.05,
            execution=execution,
            observability=ObservabilityConfig(trace=True, metrics=True, sample_interval=0.25),
            checker=CheckerConfig(enabled=True),
            faults=FaultConfig(
                peer_crash_rate=0.05,
                endorser_slowdown_rate=0.1,
                orderer_outages=((0.5, 0.3),),
                endorsement_loss_rate=0.01,
            ),
            retry=RetryConfig(policy="jittered", max_retries=3),
        ),
        arrival_rate=160.0,
        duration=2.0,
        zipf_skew=1.0,
        seed=11,
    )


#: The paper topology (cluster C2, policy P0) on eight channels sharing one
#: clock, 100 tx/s per channel: the pipeline smoke's eight-channel cell.
PAPER_EIGHT_CHANNELS = ExperimentConfig(
    variant="fabric-1.4",
    workload=uniform_workload("EHR", patients=40),
    network=NetworkConfig(cluster="C2", database="leveldb", channels=8),
    arrival_rate=800.0,
    duration=2.0,
    zipf_skew=1.0,
    seed=11,
)
EXPORTS = ("trace-export", "metrics-export")

#: Cell -> (its configuration, its parts), in corpus order.  Every part of a
#: cell is read off one recorded run.
RUN_CELLS: Dict[str, Tuple[ExperimentConfig, Tuple[str, ...]]] = {
    **{f"pins/{name}": (config, ("fingerprint",)) for name, config in PIN_CELLS.items()},
    "pins/fabric-1.4/EHR/C1": (PIN_CELLS["fabric-1.4/EHR/C1"], ("fingerprint", "analysis")),
    "pins/chaos/C2": (PIN_CELLS["chaos/C2"], ("fingerprint", "analysis", "history", *EXPORTS)),
    # Eight coupled channels on one clock: per-channel metrics, 2PC stages.
    "8-channel/EHR-C1": (
        pin_cell(
            "fabric-1.4",
            uniform_workload("EHR", patients=60),
            "C1",
            400.0,
            29,
            channels=8,
            cross_channel_rate=0.1,
        ),
        ("analysis",),
    ),
    "chaos-audit/shared-clock": (chaos_audit_cell(), EXPORTS),
    "8-channel/EHR-C2": (PAPER_EIGHT_CHANNELS, ("workload-streams",)),
}
#: The cells whose every ``ExperimentMetrics`` field is pinned, aggregate and per channel.
ANALYSIS_CELLS = {
    cell: config for cell, (config, parts) in RUN_CELLS.items() if "analysis" in parts
}


# -------------------------------------------------------------------- parts
def _run_rows(digest: dict) -> dict:
    rows = dict(digest)
    for name in ("transactions", "early_aborted", "read_only_skipped"):
        # A transaction's digest starts with its id; its eighth item is its submission time.
        rows[name] = {repr((tx[7], tx[0])): row_digest(tx) for tx in digest[name]}
    rows["ledger"] = {str(block[0]): row_digest(block) for block in digest["ledger"]}
    if "channels" in digest:
        rows["channels"] = [
            {**channel, "record": _run_rows(channel["record"])} for channel in digest["channels"]
        ]
    return rows


def fingerprint_entry(record) -> dict:
    """``record_fingerprint`` of a recorded run: its scalars, a digest per row, its SHA-256."""
    fingerprint = record_fingerprint(record)
    return canonical({**_run_rows(fingerprint), "sha256": sha256(dumps(fingerprint))})


def history_entry(record) -> dict:
    """The ``repro-history/1`` document, a digest per committed transaction, its SHA-256."""
    document = history_document(record)
    channels = [
        {**channel, "committed": {entry["tx"]: row_digest(entry) for entry in channel["committed"]}}
        for channel in document["channels"]
    ]
    return canonical({**document, "channels": channels, "sha256": sha256(dumps(document))})


def analysis_entry(analysis) -> dict:
    """Every ``ExperimentMetrics`` field, the aggregate's and each channel's."""
    return {
        "aggregate": canonical(analysis.metrics),
        "channels": {
            str(channel.index): canonical(channel.metrics) for channel in analysis.channel_analyses
        },
    }


#: The parts of an export in which the simulator observes itself: a change to
#: the event budget moves these and the file's SHA-256, and nothing else.
ENGINE_PARTS = ("series/engine_events_per_s", "series/pending_events", "summary/engine")


def exported_bytes(data: ObservabilityData, directory: Path) -> Dict[str, bytes]:
    """The run's ``trace`` and ``metrics`` exports, as the writers produce them.

    Nothing is stripped: a wall-clock key that reaches an export fails its pin.
    """
    trace_path = Path(directory) / "trace.json"
    write_chrome_trace(trace_path, [data])
    metrics = dumps(metrics_document(data))
    return {"trace": trace_path.read_bytes(), "metrics": metrics.encode("utf-8")}


def export_parts(document: dict) -> Dict[str, str]:
    """``part name -> short digest`` of a Chrome-trace or a metrics document."""
    parts: Dict[str, object] = {}
    if "traceEvents" in document:
        parts["header"] = {key: value for key, value in document.items() if key != "traceEvents"}
        for event in document["traceEvents"]:
            if event["ph"] == "C":
                name = f"series/{event['name']}"
            elif event["ph"] == "i":
                name = "markers"
            else:
                name = "spans"
            parts.setdefault(name, []).append(event)
    else:
        for name, value in document["summary"].items():
            parts[f"summary/{name}"] = value
        parts["markers"] = document["markers"]
        for row in document["series"]:
            for column, value in row.items():
                if column != "time":
                    parts.setdefault(f"series/{column}", []).append([row["time"], value])
    return {name: row_digest(part) for name, part in sorted(parts.items())}


def export_entries(data: ObservabilityData) -> Dict[str, dict]:
    """Per exported file: a digest per part, one over the parts that describe the
    simulated system (not :data:`ENGINE_PARTS`), and the file's SHA-256."""
    with tempfile.TemporaryDirectory() as directory:
        exported = exported_bytes(data, Path(directory))
    entries = {}
    for kind, content in exported.items():
        parts = export_parts(json.loads(content))
        simulated = {name: digest for name, digest in parts.items() if name not in ENGINE_PARTS}
        entries[f"{kind}-export"] = {
            "parts": parts,
            "simulated": sha256(dumps(simulated)),
            "sha256": hashlib.sha256(content).hexdigest(),
        }
    return entries


def streams_entry(network) -> dict:
    """Where a run left every client's workload stream: a digest per stream, the
    SHA-256 of their states' ``repr``."""
    states = {
        f"channel {channel.index} / workload-{client}": channel.streams.stream(
            f"workload-{client}"
        ).getstate()
        for channel in network.channels
        for client in range(channel.config.clients)
    }
    return {
        "streams": {name: row_digest(state) for name, state in states.items()},
        "sha256": sha256(repr(list(states.values()))),
    }


class RecordingRunner(ExperimentRunner):
    """Records the submitted cells in order and returns before simulating."""

    def __init__(self):
        super().__init__(workers=1)
        self.cell_hashes: List[str] = []

    def run_many(self, configs):
        self.cell_hashes.extend(config.cell_hash() for config in configs)
        return [ExperimentResult(config=config, analyses=[]) for config in configs]


def grid_entry(experiment_id: str) -> dict:
    """The headers of one experiment id and the cell hashes its quick grid submits, in order.

    The cell hash covers every field of a configuration, so an equal entry
    means the executor simulates exactly the same cells in the same order.
    """
    spec = EXPERIMENTS[experiment_id]
    runner = RecordingRunner()
    if spec.body is None:
        headers = regenerate([experiment_id], QUICK_SCALE, runner)[0].headers
    else:
        headers = spec.headers  # in-process bodies submit no cells
    return {"headers": list(headers), "cells": runner.cell_hashes}


def draws_entry() -> dict:
    """Sharded key draws over a grid of placements, channel counts, skews,
    populations and seeds: a digest per batch, the SHA-256 of their ``repr``."""
    drawn, rows = [], {}
    for placement in ("hash", "range", "hot"):
        for channels in (1, 8):
            topology = ChannelTopology(channels=channels, placement=placement)
            for skew in (0.0, 1.0):
                for channel in range(channels):
                    base = make_distribution(skew)
                    sharded = ShardedKeyDistribution(topology, channel, base=base)
                    for population in (1, 40, 257):
                        for seed in (1, 2):
                            rng = random.Random(seed)
                            # The batch, and where it left the stream.
                            row = [sharded.sample_batch(rng, population, 25), rng.random()]
                            drawn += row
                            rows[
                                f"placement={placement} channels={channels} skew={skew} "
                                f"channel={channel} population={population} seed={seed}"
                            ] = row_digest(row)
    return {"rows": rows, "sha256": sha256(repr(drawn))}


# ----------------------------------------------------------------- producers
@functools.lru_cache(maxsize=1)
def recorded_run(cell: str):
    """``(network, record)`` of one of :data:`RUN_CELLS`, its chain recorded.

    Cached, so the parts of one cell read one run: a caller must leave it as
    it found it.
    """
    config = RUN_CELLS[cell][0]
    network = build(config, record_chain=True)
    return network, run(network, config)


def _part(cell: str, part: str):
    network, record = recorded_run(cell)
    if part == "analysis":
        return analysis_entry(LedgerAnalyzer().analyze(record))
    if part in EXPORTS:
        return export_entries(record.observability)[part]
    if part == "workload-streams":
        return streams_entry(network)
    return {"fingerprint": fingerprint_entry, "history": history_entry}[part](record)


def _producers() -> Dict[Tuple[str, str], Callable[[], object]]:
    partial = functools.partial
    producers = {
        (f"lifecycle/{variant}/channels={channels}", "metrics"): partial(
            golden_metrics, golden_config(variant, channels)
        )
        for variant in VARIANTS
        for channels in CHANNEL_COUNTS
    }
    for cell, (_config, parts) in RUN_CELLS.items():
        producers.update({(cell, part): partial(_part, cell, part) for part in parts})
    for experiment_id in EXPERIMENTS:
        producers[(f"grid/{experiment_id}", "cells")] = partial(grid_entry, experiment_id)
    producers[("sharded-draws", "draws")] = draws_entry
    return producers


#: ``(cell, part) -> producer`` of every corpus entry, in corpus order.
PRODUCERS = _producers()


def write(path: Path = CORPUS_PATH) -> int:
    """Write the corpus to ``path`` (one JSON row per line); returns its entries."""
    corpus = {key(cell, part): canonical(produce()) for (cell, part), produce in PRODUCERS.items()}
    Path(path).write_text(json.dumps(corpus, indent=1) + "\n", encoding="utf-8")
    return len(corpus)
