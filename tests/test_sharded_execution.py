"""Bit-identity contract of the sharded execution path.

A multi-channel deployment nothing couples runs one clock per channel (its
shards, drained in this process or in worker processes and merged in
deterministic channel order); it must reproduce the shared-clock run *bit for
bit*: every tally, counter and utilization, every derived metric.  Such a
deployment shares one clock only when its chain is recorded, and a sharded
run cannot record its chain (a shard ships its tally, never its
transactions), so the plans are compared as analyses (:func:`plan_free`)
against a recorded shared-clock run without its chain (:func:`shared_clock`);
the chain of a shared-clock run is pinned by the fingerprints of
``test_single_channel_pins.py``.  A divergence fails naming the first
diverging channel and field.  These tests pin that contract across channel
counts, the four variant families, the in-process and multi-process shard
paths, and the experiment runner's serial and parallel paths — plus the
fallback behaviour for topologies that cannot shard.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
import tempfile
from pathlib import Path
from types import SimpleNamespace

import pytest
from corpus import (
    assert_pinned,
    build,
    canonical,
    chaos_audit_cell,
    export_entries,
    exported_bytes,
    recursive_diff,
    run,
)

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.bench.runner import ExperimentRunner
from repro.chaincode import CHAINCODE_REGISTRY, ElectronicHealthRecordsChaincode
from repro.channels import merge as channel_merge
from repro.channels import network as channels_network
from repro.channels.network import MultiChannelNetwork
from repro.core import LedgerAnalyzer
from repro.core.fingerprint import EXECUTION_METADATA_FIELDS, record_fingerprint
from repro.faults.spec import FaultConfig
from repro.checker.config import CheckerConfig
from repro.lifecycle import tally
from repro.lifecycle.retry import RetryConfig
from repro.lifecycle.pipeline import build_network
from repro.network import network as channel_slice
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.sim.shard import PROCESS_BUDGET_ENV, ExecutionConfig
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
    faults: FaultConfig = FaultConfig(),
    retry: RetryConfig = RetryConfig(),
) -> ExperimentConfig:
    if retry_rate_cap is not None:
        retry = RetryConfig(policy="immediate", rate_cap=retry_rate_cap)
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
        faults=faults,
        retry=retry,
    )
    return ExperimentConfig(
        variant=variant,
        workload=uniform_workload("EHR", patients=40),
        network=network,
        arrival_rate=80.0,
        duration=duration,
        zipf_skew=1.0,
        seed=11,
    )


def run_cell(config: ExperimentConfig, record_chain: bool = False):
    """Build and run one cell directly; returns ``(network, record)``."""
    network = build(config, record_chain=record_chain)
    return network, run(network, config)


def _record_state(record) -> dict:
    state = {
        name: value
        for name, value in vars(record).items()
        if name not in EXECUTION_METADATA_FIELDS
    }
    state["config"] = record.config.copy(execution=ExecutionConfig())
    state["channel_records"] = [
        {**vars(channel), "record": _record_state(channel.record)}
        for channel in record.channel_records
    ]
    return state


def plan_free(record) -> dict:
    """Everything the analysis of ``record`` holds, declared execution metadata aside.

    Every plan must compute it field for field: the tallies (counts and every
    folded float), utilizations, counters and verdicts, per channel too.
    """
    return {**vars(LedgerAnalyzer().analyze(record)), "record": _record_state(record)}


def unrecorded(record) -> dict:
    """``plan_free`` of a recorded run, without the chain that recording adds."""
    state = plan_free(record)
    state["record"]["chain"] = None
    for channel in state["record"]["channel_records"]:
        channel["record"]["chain"] = None
    return state


def shared_clock(config: ExperimentConfig) -> dict:
    """What ``config`` computes on one shared clock: the reference of every plan.

    An uncoupled deployment plans the shared clock only when its chain is
    recorded.
    """
    network, record = run_cell(config, record_chain=True)
    assert network.execution_mode == "shared-clock" and record.shard_count == 1
    return unrecorded(record)


def assert_computes(state: dict, reference: dict) -> None:
    """``state == reference``, or a failure naming the first diverging channel and field."""
    if state == reference:
        return
    changes = recursive_diff(canonical(reference), canonical(state))
    lines = [f"{len(changes)} field(s) differ from the shared clock"]
    for path, change in list(changes.items())[:5]:
        where = " / ".join(str(step) for step in path) or "(the whole state)"
        lines.append(f"  {where}: shared clock {change.old!r}, this plan {change.new!r}")
    raise AssertionError("\n".join(lines))


# ------------------------------------------------------------- bit identity
@pytest.mark.parametrize("channels", [2, 4, 8])
def test_sharded_run_is_bit_identical_to_shared_clock(channels):
    # The default worker count: every channel on its own clock, in this process.
    config = experiment(ExecutionConfig(), channels=channels)
    network, sharded = run_cell(config)
    assert isinstance(network, MultiChannelNetwork)
    assert network.execution_mode == "sharded"
    assert network.sim is None and network.channels == []
    assert sharded.execution == "sharded"
    assert sharded.shard_count == channels
    assert network.shard_workers_used == 1
    assert_computes(plan_free(sharded), shared_clock(config))


@pytest.mark.parametrize("variant", VARIANTS)
def test_bit_identity_holds_for_every_variant_family(variant):
    config = experiment(ExecutionConfig(shard_workers=0), variant=variant)
    _, sharded = run_cell(config)
    assert_computes(plan_free(sharded), shared_clock(config))


#: Peer crashes, endorser slowdowns, lost endorsements, an orderer outage and a
#: partition of channel 2: every fault kind a channel draws from its own streams.
CHAOS = FaultConfig(
    peer_crash_rate=0.1,
    endorser_slowdown_rate=0.2,
    orderer_outages=((0.5, 0.3),),
    partitions=((2, 1.0, 0.4),),
    endorsement_loss_rate=0.02,
)


@pytest.mark.parametrize("workers", [1, 2])
def test_faults_and_uncapped_retries_shard_bit_identically(workers):
    # Faults and a retry policy without a rate cap couple nothing: such a cell
    # runs one clock per channel by default and must compute the shared clock.
    config = experiment(
        ExecutionConfig(shard_workers=workers),
        duration=3.0,
        faults=CHAOS,
        retry=RetryConfig(policy="jittered", max_retries=3),
    )
    _, sharded = run_cell(config)
    assert sharded.execution == "sharded" and sharded.shard_count == 4
    # Every fault kind was applied and retries ran, so the comparison is not vacuous.
    applied = sharded.fault_injections
    for kind in ("peer_crash", "endorser_slowdown_start", "orderer_outage_start",
                 "partition_start", "lost_endorsements"):
        assert applied.get(kind, 0) > 0, (kind, applied)
    assert sharded.resubmissions > 0
    assert_computes(plan_free(sharded), shared_clock(config))


def test_a_divergence_names_the_channel_and_the_field():
    config = experiment(ExecutionConfig(), channels=2)
    reference = shared_clock(config)
    diverged = plan_free(run_cell(config)[1])
    tally = diverged["record"]["channel_records"][1]["record"]["tally"]
    tally.attempts += 1
    with pytest.raises(AssertionError) as failure:
        assert_computes(diverged, reference)
    first = str(failure.value).splitlines()[1]
    assert first.startswith("  record / channel_records / 1 / record / tally / attempts: ")


def test_multiprocess_shards_match_in_process_shards(monkeypatch):
    # An explicit worker cap forces the real process-pool path; the
    # merge must be byte-equal to every shard drained in this one process
    # (auto-sized workers under a budget of one process).
    monkeypatch.setenv(PROCESS_BUDGET_ENV, "1")
    network, sequential = run_cell(experiment(ExecutionConfig(shard_workers=0)))
    assert sequential.execution == "sharded" and network.shard_workers_used == 1
    monkeypatch.delenv(PROCESS_BUDGET_ENV)
    _, pooled = run_cell(experiment(ExecutionConfig(shard_workers=4)))
    reference = shared_clock(experiment(ExecutionConfig()))
    assert_computes(plan_free(pooled), reference)
    assert_computes(plan_free(sequential), reference)


def test_this_process_is_one_of_the_shard_workers():
    # Three processes on four shards: this one drains shards 0 and 3, a pool
    # of two drains 1 and 2.  The bytes they ship are counted per run.
    config = experiment(ExecutionConfig(shard_workers=3))
    network = build(config)
    runs = []
    for _ in range(2):
        record = run(network, config)
        runs.append((plan_free(record), network.shard_transport_bytes))
    assert network.shard_workers_used == 3
    assert runs[0] == runs[1] and runs[0][1] > 0
    assert_computes(runs[0][0], shared_clock(config))


# ------------------------------------------- shard files and channel walks
class ChaincodeOfThisProcess(ElectronicHealthRecordsChaincode):
    """EHR in the process that imported this module; a failure in every other."""

    pid = os.getpid()

    def __init__(self, **kwargs) -> None:
        if os.getpid() != self.pid:
            raise RuntimeError("a shipped shard failed")
        super().__init__(**kwargs)


@pytest.fixture
def shard_tmp(tmp_path, monkeypatch):
    """A fresh, empty ``TMPDIR`` for the shard files of the runs of one test."""
    directory = tmp_path / "tmp"
    directory.mkdir()
    monkeypatch.setenv("TMPDIR", str(directory))
    monkeypatch.setattr(tempfile, "tempdir", None)  # re-read TMPDIR
    return directory


def test_pool_shards_come_back_as_files_that_do_not_outlive_the_run(shard_tmp, monkeypatch):
    loaded = []

    def load(file):
        loaded.append(os.fstat(file.fileno()).st_size)
        return pickle.load(file)

    monkeypatch.setattr(channels_network, "pickle", SimpleNamespace(load=load))
    network, pooled = run_cell(experiment(ExecutionConfig(shard_workers=3)))
    assert network.shard_workers_used == 3
    assert len(loaded) == 2  # shards 1 and 2; this process drained 0 and 3
    assert network.shard_transport_bytes == sum(loaded) > 0
    assert list(shard_tmp.iterdir()) == []
    assert_computes(plan_free(pooled), shared_clock(experiment(ExecutionConfig())))


def test_a_failed_shipped_shard_leaves_no_shard_file(shard_tmp, monkeypatch):
    # The pool forks, so its workers see the registration made here.
    monkeypatch.setitem(CHAINCODE_REGISTRY, "EHR-of-this-process", ChaincodeOfThisProcess)
    config = experiment(ExecutionConfig(shard_workers=2))
    network = build_network(
        config.network,
        "EHR-of-this-process",
        config.variant,
        chaincode_kwargs=config.workload.chaincode_kwargs,
        seed=config.seed,
    )
    with pytest.raises(RuntimeError, match="a shipped shard failed"):
        network.run(
            mix=config.workload.mix,
            arrival_rate=config.arrival_rate,
            duration=config.duration,
            workload_name=config.workload.name,
        )
    assert network.shard_workers_used == 2
    assert list(shard_tmp.iterdir()) == []


@pytest.mark.parametrize("plan", ["shared-clock", "in-process", "pooled"])
def test_each_channel_is_folded_where_it_was_simulated(plan, monkeypatch):
    # Shard workers 2 on four channels: this process simulates shards 0 and
    # 2, the pool 1 and 3 — unless every shard runs here, or one clock does
    # (a recorded run).
    # A channel's tally is folded by the process that simulated it; the
    # merge folds the tallies of all four once, for the aggregate.  A closed
    # tally carries no name: its attempt count and last commit tell it apart.
    folded = []

    def counted(fold):
        def wrapper(tallies):
            folded.append([(channel.attempts, channel.last_commit) for channel in tallies])
            return fold(tallies)

        return wrapper

    for module in (channel_slice, channel_merge):
        monkeypatch.setattr(module, "fold", counted(tally.fold))
    if plan == "in-process":
        monkeypatch.setenv(PROCESS_BUDGET_ENV, "1")
    execution = ExecutionConfig() if plan == "shared-clock" else ExecutionConfig(shard_workers=2)
    network, record = run_cell(experiment(execution), record_chain=plan == "shared-clock")
    assert network.execution_mode == ("shared-clock" if plan == "shared-clock" else "sharded")
    assert network.shard_workers_used == (2 if plan == "pooled" else 1)
    here = [0, 2] if plan == "pooled" else [0, 1, 2, 3]
    channel_of = {
        (channel.record.tally.attempts, channel.record.tally.last_commit): channel.index
        for channel in record.channel_records
    }
    assert len(channel_of) == 4
    assert [[channel_of[key] for key in keys] for keys in folded] == [
        [index] for index in here
    ] + [list(range(4))]
    assert record.tally.attempts == sum(
        channel.record.tally.attempts for channel in record.channel_records
    )


def test_transaction_ids_are_per_channel_sequences():
    _, record = run_cell(experiment(ExecutionConfig()), record_chain=True)
    prefixes = {tx.tx_id.rsplit("-", 1)[0] for tx in record.transactions}
    assert prefixes <= {f"tx-c{index}" for index in range(4)}
    for channel in record.channel_records:
        ids = [tx.tx_id for tx in channel.record.transactions]
        assert all(tx_id.startswith(f"tx-c{channel.index}-") for tx_id in ids)


def test_a_recorded_run_keeps_the_shared_clock():
    # A shard ships its tally, never its transactions: asked for shards, a
    # recorded run plans one clock and computes what the shards do.
    network, recorded = run_cell(experiment(ExecutionConfig(shard_workers=0)), record_chain=True)
    assert network.execution_mode == "shared-clock" and recorded.shard_count == 1
    assert recorded.transactions and recorded.channel_records[0].record.ledger.blocks
    _, sharded = run_cell(experiment(ExecutionConfig(shard_workers=0)))
    assert sharded.execution == "sharded" and sharded.chain is None
    assert_computes(plan_free(sharded), unrecorded(recorded))


# ------------------------------------------------------- runner equivalence
def test_runner_paths_agree_on_sharded_cells():
    default = experiment(ExecutionConfig())
    auto = experiment(ExecutionConfig(shard_workers=0))
    # Identical identity: same cell hash, therefore same repetition seeds.
    assert default.cell_hash() == auto.cell_hash()
    serial = ExperimentRunner(workers=1, cache=None).run(auto).analyses[0]
    parallel = ExperimentRunner(workers=2, cache=None).run(auto).analyses[0]
    in_process = ExperimentRunner(workers=1, cache=None).run(default).analyses[0]
    # Whatever path produced it, an analysis is the plan's, declared execution
    # metadata aside; the shared clock's is a recorded repetition's.
    assert parallel == serial
    assert serial.record.execution == in_process.record.execution == "sharded"
    recorded = run_repetition(default, repetition=0, record_chain=True).record
    assert recorded.execution == "shared-clock"
    reference = unrecorded(recorded)
    assert_computes(plan_free(serial.record), reference)
    assert_computes(plan_free(in_process.record), reference)


def test_run_repetition_reports_the_execution_strategy():
    analysis = run_repetition(experiment(ExecutionConfig(shard_workers=0)), repetition=0)
    assert analysis.record.execution == "sharded"
    assert analysis.record.shard_count == 4


# ---------------------------------------------------------------- fallbacks
def test_coupled_topology_falls_back_to_the_shared_clock():
    network, record = run_cell(
        experiment(ExecutionConfig(shard_workers=0), cross_channel_rate=0.1), record_chain=True
    )
    assert isinstance(network, MultiChannelNetwork)
    assert network.execution_mode == "shared-clock"
    assert record.execution == "shared-clock"
    assert record.shard_count == 1
    _, reference = run_cell(
        experiment(ExecutionConfig(), cross_channel_rate=0.1), record_chain=True
    )
    assert record_fingerprint(record) == record_fingerprint(reference)


def test_retry_rate_cap_is_one_bucket_across_all_channels():
    # One deployment-wide token bucket: rate_cap tokens per simulated second
    # plus the initial burst bound the resubmissions of the *whole* run.  A
    # bucket per channel would admit up to four times as many.
    rate_cap = 5.0
    config = ExperimentConfig(
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            channels=4,
            cross_channel_rate=0.1,
            retry=RetryConfig(policy="immediate", rate_cap=rate_cap),
        ),
        arrival_rate=400.0,
        duration=4.0,
        zipf_skew=1.0,
        seed=7,
    )
    _, record = run_cell(config)
    assert record.retry_rate_denied > 0
    assert record.resubmissions <= rate_cap * record.simulated_end + max(1, rate_cap)


def test_global_retry_rate_cap_forces_the_shared_clock():
    # The resubmission rate cap is one token bucket across all channels;
    # sharding would change admission decisions, so such runs never shard.
    network, record = run_cell(
        experiment(ExecutionConfig(shard_workers=0), retry_rate_cap=50.0)
    )
    assert network.execution_mode == "shared-clock"
    assert record.execution == "shared-clock"


# ------------------------------------------------------------ observability
OBSERVED = ObservabilityConfig(trace=True, metrics=True, sample_interval=0.25)


def test_an_observed_deployment_keeps_the_shared_clock(tmp_path):
    # One run's spans, samples and latency histogram come from one observer on
    # one clock: asked for shards, an observed uncoupled cell runs the
    # shared-clock plan and exports the bytes of ``shard_workers=1``.
    def exports(workers: int):
        _, record = run_cell(
            experiment(ExecutionConfig(shard_workers=workers), observability=OBSERVED)
        )
        assert record.execution == "shared-clock" and record.shard_count == 1
        directory = tmp_path / f"workers-{workers}"
        directory.mkdir()
        return exported_bytes(record.observability, directory)

    reference = exports(1)
    for workers in (0, 2):
        assert exports(workers) == reference
    completed = subprocess.run(
        [
            sys.executable,
            str(REPO_ROOT / "scripts" / "check_trace_schema.py"),
            str(tmp_path / "workers-2" / "trace.json"),
        ],
        capture_output=True,
        text=True,
    )
    assert completed.returncode == 0, completed.stderr


# ------------------------------------------------------------------- checker
CHECKED = CheckerConfig(enabled=True)


def test_checker_verdicts_identical_across_execution_strategies():
    # The checker handles each channel slice's own bus, so the verdict
    # and every retained witness must be bit-identical no matter how the
    # channels were scheduled: shared clock, in-process shards, or a real
    # worker pool (the report crosses a process boundary).
    _, shared = run_cell(experiment(ExecutionConfig(), checker=CHECKED), record_chain=True)
    _, sharded = run_cell(experiment(ExecutionConfig(), checker=CHECKED))
    _, pooled = run_cell(experiment(ExecutionConfig(shard_workers=4), checker=CHECKED))
    assert shared.execution == "shared-clock" and shared.isolation is not None
    summary = shared.isolation.summary()
    assert summary["verdict"] == "CERTIFIED-SERIALIZABLE"
    assert summary["committed"] > 0
    assert sharded.isolation.summary() == summary
    assert pooled.isolation.summary() == summary
    # The record carries the isolation report, so the bit-identity contract
    # extends to checker output as well.
    assert_computes(plan_free(sharded), unrecorded(shared))
    assert_computes(plan_free(pooled), unrecorded(shared))


def test_fingerprint_covers_the_isolation_digest():
    _, record = run_cell(experiment(ExecutionConfig(), checker=CHECKED), record_chain=True)
    baseline = record_fingerprint(record)
    record.isolation = None
    assert record_fingerprint(record) != baseline


# ------------------------------------------------- export bytes, plan by plan
@pytest.mark.parametrize(
    "execution",
    # Coupled, so the worker request runs the shared-clock plan.
    [ExecutionConfig(), ExecutionConfig(shard_workers=2)],
    ids=["shared", "workers-2"],
)
def test_chaos_audit_cell_exports_the_pinned_bytes(execution):
    # Through the shared-clock plan, asked for and fallen back to.  The
    # simulated system's part of each pin dates from the commit before the
    # deployment classes were collapsed into one: the observer wiring, the
    # merge and the exporters must keep producing the same bytes.
    _, record = run_cell(chaos_audit_cell(execution))
    assert record.fault_injections and record.resubmissions > 0
    assert record.isolation.verdict == "CERTIFIED-SERIALIZABLE"
    for part, entry in export_entries(record.observability).items():
        assert_pinned("chaos-audit/shared-clock", part, entry)
