"""Bit-identity contract of the sharded execution path.

Sharded execution (independent channels in worker processes, merged in
deterministic channel order) must reproduce the shared-clock run *bit for
bit* whenever the topology partitions (``cross_channel_rate == 0``): every
transaction timestamp, every ledger block, every derived metric.  These
tests pin that contract across channel counts, the four variant families,
the in-process and multi-process shard paths, and the experiment runner's
serial and parallel paths — plus the fallback behaviour for topologies that
cannot shard.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest
from export_parts import assert_export_pinned, exported_bytes

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.bench.runner import ExperimentRunner
from repro.channels.network import MultiChannelNetwork
from repro.core.fingerprint import EXECUTION_METADATA_FIELDS, record_fingerprint
from repro.checker.config import CheckerConfig
from repro.faults.spec import FaultConfig
from repro.lifecycle.retry import RetryConfig
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.observability.export import write_chrome_trace
from repro.sim.shard import ExecutionConfig
from repro.workload.distributions import make_distribution
from repro.workload.workloads import uniform_workload

REPO_ROOT = Path(__file__).resolve().parent.parent

VARIANTS = ("fabric-1.4", "fabric++", "streamchain", "fabricsharp")


def experiment(
    execution: ExecutionConfig,
    channels: int = 4,
    cross_channel_rate: float = 0.0,
    variant: str = "fabric-1.4",
    observability: ObservabilityConfig = ObservabilityConfig(),
    retry_rate_cap=None,
    duration: float = 2.0,
    checker: CheckerConfig = CheckerConfig(),
) -> ExperimentConfig:
    network = NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=2,
        block_size=10,
        database="leveldb",
        channels=channels,
        cross_channel_rate=cross_channel_rate,
        execution=execution,
        observability=observability,
        checker=checker,
    )
    if retry_rate_cap is not None:
        network.retry = RetryConfig(policy="immediate", rate_cap=retry_rate_cap)
    return ExperimentConfig(
        variant=variant,
        workload=uniform_workload("EHR", patients=40),
        network=network,
        arrival_rate=80.0,
        duration=duration,
        zipf_skew=1.0,
        seed=11,
    )


def run_cell(config: ExperimentConfig):
    """Build and run one cell directly; returns ``(network, record)``."""
    network = build_network(
        config=config.network,
        chaincode_factory=config.build_chaincode,
        variant_factory=config.variant,
        seed=config.seed,
    )
    record = network.run(
        mix=config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=make_distribution(config.zipf_skew),
        workload_name=config.workload.name,
    )
    return network, record


# ------------------------------------------------------------- bit identity
@pytest.mark.parametrize("channels", [2, 4, 8])
def test_sharded_run_is_bit_identical_to_shared_clock(channels):
    _, shared = run_cell(experiment(ExecutionConfig(), channels=channels))
    network, sharded = run_cell(
        experiment(ExecutionConfig(shard_workers=0), channels=channels)
    )
    assert isinstance(network, MultiChannelNetwork)
    assert sharded.execution == "sharded"
    assert sharded.shard_count == channels
    assert shared.execution == "shared-clock"
    assert record_fingerprint(sharded) == record_fingerprint(shared)


@pytest.mark.parametrize("variant", VARIANTS)
def test_bit_identity_holds_for_every_variant_family(variant):
    _, shared = run_cell(experiment(ExecutionConfig(), variant=variant))
    _, sharded = run_cell(experiment(ExecutionConfig(shard_workers=0), variant=variant))
    assert record_fingerprint(sharded) == record_fingerprint(shared)


def test_multiprocess_shards_match_in_process_shards():
    # An explicit worker cap forces the real multiprocessing.Pool path; the
    # merge must be byte-equal to the workers=1 sequential execution.
    _, sequential = run_cell(experiment(ExecutionConfig(shard_workers=1 << 0)))
    _, pooled = run_cell(experiment(ExecutionConfig(shard_workers=4)))
    _, shared = run_cell(experiment(ExecutionConfig()))
    fingerprint = record_fingerprint(shared)
    assert record_fingerprint(pooled) == fingerprint
    assert record_fingerprint(sequential) == fingerprint


def test_this_process_is_one_of_the_shard_workers():
    # Three processes on four shards: this one drains shards 0 and 3, a pool
    # of two drains 1 and 2.  The bytes they ship are counted per run.
    config = experiment(ExecutionConfig(shard_workers=3))
    network = build_network(
        config=config.network,
        chaincode_factory=config.build_chaincode,
        variant_factory=config.variant,
        seed=config.seed,
    )
    runs = []
    for _ in range(2):
        record = network.run(
            mix=config.workload.mix,
            arrival_rate=config.arrival_rate,
            duration=config.duration,
            key_distribution=make_distribution(config.zipf_skew),
            workload_name=config.workload.name,
        )
        runs.append((record_fingerprint(record), network.shard_transport_bytes))
    assert network.shard_workers_used == 3
    assert runs[0] == runs[1] and runs[0][1] > 0
    _, shared = run_cell(experiment(ExecutionConfig()))
    assert runs[0][0] == record_fingerprint(shared)


def test_transaction_ids_are_per_channel_sequences():
    _, record = run_cell(experiment(ExecutionConfig(shard_workers=0)))
    prefixes = {tx.tx_id.rsplit("-", 1)[0] for tx in record.transactions}
    assert prefixes <= {f"tx-c{index}" for index in range(4)}
    for channel in record.channel_records:
        ids = [tx.tx_id for tx in channel.record.transactions]
        assert all(tx_id.startswith(f"tx-c{channel.index}-") for tx_id in ids)


# ------------------------------------------------------- runner equivalence
def test_runner_paths_agree_on_sharded_cells():
    shared = experiment(ExecutionConfig())
    sharded = experiment(ExecutionConfig(shard_workers=0))
    # Identical identity: same cell hash, therefore same repetition seeds.
    assert shared.cell_hash() == sharded.cell_hash()
    serial = ExperimentRunner(workers=1, cache=None).run(sharded).analyses[0]
    parallel = ExperimentRunner(workers=2, cache=None).run(sharded).analyses[0]
    reference = ExperimentRunner(workers=1, cache=None).run(shared).analyses[0]
    # Runner results are detached: the chains of the two plans are compared in
    # process above; here every kept fact is, declared execution metadata aside.
    assert parallel == serial
    assert serial.record.execution == "sharded" and reference.record.execution == "shared-clock"
    declared = ("config", *EXECUTION_METADATA_FIELDS)
    for name, value in vars(reference.record).items():
        if name not in declared:
            assert getattr(serial.record, name) == value, name
    for name in ("metrics", "channel_analyses", "conflicting_keys", "read_only_share"):
        assert getattr(serial, name) == getattr(reference, name), name


def test_run_repetition_reports_the_execution_strategy():
    analysis = run_repetition(experiment(ExecutionConfig(shard_workers=0)), repetition=0)
    assert analysis.record.execution == "sharded"
    assert analysis.record.shard_count == 4


# ---------------------------------------------------------------- fallbacks
def test_coupled_topology_falls_back_to_the_shared_clock():
    network, record = run_cell(
        experiment(ExecutionConfig(shard_workers=0), cross_channel_rate=0.1)
    )
    assert isinstance(network, MultiChannelNetwork)
    assert network.execution_mode == "shared-clock"
    assert record.execution == "shared-clock"
    assert record.shard_count == 1
    _, reference = run_cell(experiment(ExecutionConfig(), cross_channel_rate=0.1))
    assert record_fingerprint(record) == record_fingerprint(reference)


def test_global_retry_rate_cap_forces_the_shared_clock():
    # The resubmission rate cap is one token bucket across all channels;
    # sharding would change admission decisions, so such runs never shard.
    network, record = run_cell(
        experiment(ExecutionConfig(shard_workers=0), retry_rate_cap=50.0)
    )
    assert network.execution_mode == "shared-clock"
    assert record.execution == "shared-clock"


def test_unpicklable_factories_degrade_to_in_process_execution():
    config = experiment(ExecutionConfig(shard_workers=4))
    captured = {}

    def chaincode_factory():
        # A closure over local state: unpicklable, so the pool path must be
        # skipped — the run still shards, just inside this process.
        captured.setdefault("builds", 0)
        captured["builds"] += 1
        return config.build_chaincode()

    network = MultiChannelNetwork(
        config=config.network,
        chaincode_factory=chaincode_factory,
        variant_factory=lambda: __import__(
            "repro.fabric.variant", fromlist=["create_variant"]
        ).create_variant(config.variant),
        seed=config.seed,
    )
    record = network.run(
        mix=config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=make_distribution(config.zipf_skew),
        workload_name=config.workload.name,
    )
    assert network.shard_workers_used == 1
    assert record.execution == "sharded"
    assert captured["builds"] == 4
    _, shared = run_cell(experiment(ExecutionConfig()))
    assert record_fingerprint(record) == record_fingerprint(shared)


# ------------------------------------------------------------ observability
OBSERVED = ObservabilityConfig(trace=True, metrics=True, sample_interval=0.25)


def test_observability_merges_across_shards():
    _, shared = run_cell(experiment(ExecutionConfig(), observability=OBSERVED))
    _, sharded = run_cell(
        experiment(ExecutionConfig(shard_workers=0), observability=OBSERVED)
    )
    # The simulation itself stays bit-identical with tracing enabled.
    assert record_fingerprint(sharded) == record_fingerprint(shared)
    data = sharded.observability
    assert data is not None
    # Span and counter totals agree with the shared-clock observer.
    assert len(data.spans) == len(shared.observability.spans)
    assert data.summary["counters"] == shared.observability.summary["counters"]
    # The merged engine profile aggregates every shard's simulator.
    engine = data.summary["engine"]
    assert engine["events"] == sum(shard["events"] for shard in engine["shards"])
    assert len(engine["shards"]) == 4
    assert engine["events_per_sec"] > 0
    # Per-shard summaries ride along for drill-down.
    assert len(data.summary["shards"]) == 4


def test_merged_samples_are_time_ordered_and_summed():
    _, sharded = run_cell(
        experiment(ExecutionConfig(shard_workers=0), observability=OBSERVED)
    )
    samples = sharded.observability.samples
    times = [row["time"] for row in samples]
    assert times == sorted(times)
    assert len(times) == len(set(times))  # one merged row per tick
    # Every shard contributes its per-channel queue probe to the merged rows.
    queue_columns = {
        column for row in samples for column in row if column.startswith("queue/")
    }
    assert queue_columns == {f"queue/orderer.ch{index}" for index in range(4)}


# ------------------------------------------------------------------- checker
CHECKED = CheckerConfig(enabled=True)


def test_checker_verdicts_identical_across_execution_strategies():
    # The checker subscribes to each channel slice's own bus, so the verdict
    # and every retained witness must be bit-identical no matter how the
    # channels were scheduled: shared clock, in-process shards, a real worker
    # pool (the report crosses a process boundary), or conservative epochs
    # (which degenerate to independent clocks on an uncoupled topology).
    _, shared = run_cell(experiment(ExecutionConfig(), checker=CHECKED))
    _, sharded = run_cell(experiment(ExecutionConfig(shard_workers=0), checker=CHECKED))
    _, pooled = run_cell(experiment(ExecutionConfig(shard_workers=4), checker=CHECKED))
    _, conservative = run_cell(
        experiment(ExecutionConfig(conservative=True), checker=CHECKED)
    )
    assert shared.isolation is not None
    summary = shared.isolation.summary()
    assert summary["verdict"] == "CERTIFIED-SERIALIZABLE"
    assert summary["committed"] > 0
    assert sharded.isolation.summary() == summary
    assert pooled.isolation.summary() == summary
    assert conservative.isolation.summary() == summary
    # record_fingerprint covers the isolation digest, so the existing
    # bit-identity contract now extends to checker output as well.
    assert record_fingerprint(sharded) == record_fingerprint(shared)
    assert record_fingerprint(pooled) == record_fingerprint(shared)


def test_fingerprint_covers_the_isolation_digest():
    _, record = run_cell(experiment(ExecutionConfig(), checker=CHECKED))
    baseline = record_fingerprint(record)
    record.isolation = None
    assert record_fingerprint(record) != baseline


def test_checker_certifies_the_coupled_conservative_cell():
    # Conservative epochs on a coupled topology are a distinct simulation
    # semantics, but the committed history they produce must still certify —
    # and deterministically so.
    _, first = run_cell(
        experiment(
            ExecutionConfig(conservative=True), cross_channel_rate=0.1, checker=CHECKED
        )
    )
    _, second = run_cell(
        experiment(
            ExecutionConfig(conservative=True), cross_channel_rate=0.1, checker=CHECKED
        )
    )
    assert first.execution == "sharded-conservative"
    assert first.isolation.verdict == "CERTIFIED-SERIALIZABLE"
    assert first.isolation.summary() == second.isolation.summary()


def test_sharded_trace_export_passes_the_schema_check(tmp_path):
    _, sharded = run_cell(
        experiment(ExecutionConfig(shard_workers=0), observability=OBSERVED)
    )
    trace_path = tmp_path / "sharded_trace.json"
    write_chrome_trace(trace_path, [sharded.observability])
    completed = subprocess.run(
        [sys.executable, str(REPO_ROOT / "scripts" / "check_trace_schema.py"), str(trace_path)],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr
    document = json.loads(trace_path.read_text())
    pids = {event["pid"] for event in document["traceEvents"]}
    assert len(pids) == 1  # one run pid, shards are threads within it


# ------------------------------------------------- export bytes, plan by plan
def chaos_audit_cell(execution: ExecutionConfig) -> ExperimentConfig:
    """A chaos-audit-shaped cell: 4 coupled channels, faults, retries, exports, checker."""
    config = experiment(
        execution, cross_channel_rate=0.05, observability=OBSERVED, checker=CHECKED
    )
    config.arrival_rate = 160.0
    config.network.faults = FaultConfig(
        peer_crash_rate=0.05,
        endorser_slowdown_rate=0.1,
        orderer_outages=((0.5, 0.3),),
        endorsement_loss_rate=0.01,
    )
    config.network.retry = RetryConfig(policy="jittered", max_retries=3)
    return config


#: test id -> (execution plan, pin in ``tests/golden/export_pins.json``)
CHAOS_AUDIT_EXPORTS = {
    "shared": (ExecutionConfig(), "chaos-audit/shared-clock"),
    # Coupled, so the worker request runs the shared-clock plan.
    "workers-2": (ExecutionConfig(shard_workers=2), "chaos-audit/shared-clock"),
    "epochs": (ExecutionConfig(conservative=True), "chaos-audit/epochs"),
}


@pytest.mark.parametrize("plan", list(CHAOS_AUDIT_EXPORTS))
def test_chaos_audit_cell_exports_the_pinned_bytes(tmp_path, plan):
    # Through every in-process plan.  The simulated system's part of each pin
    # dates from the commit before the deployment classes were collapsed into
    # one: the observer wiring, the merge and the exporters must keep
    # producing the same bytes.
    execution, pin = CHAOS_AUDIT_EXPORTS[plan]
    _, record = run_cell(chaos_audit_cell(execution))
    assert record.fault_injections and record.resubmissions > 0
    assert record.isolation.verdict == "CERTIFIED-SERIALIZABLE"
    for kind, exported in exported_bytes(record.observability, tmp_path).items():
        assert_export_pinned(f"{pin}/{kind}", exported)
