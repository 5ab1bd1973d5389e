"""Tests for the observability subsystem: spans, registry, exporters, determinism.

The load-bearing contracts live here:

* tracing is strictly read-only — a traced run keeps the golden record and the
  cell hash bit-identical to an untraced run;
* exports are byte-deterministic — same config + seed produces the same trace
  file, serial or parallel;
* the critical-path analyzer agrees whether it reads in-process span trees or
  a Chrome trace file loaded from disk.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.runner import ExperimentRunner
from repro.errors import ConfigurationError
from repro.faults import FaultConfig
from repro.ledger.block import EndorsementResponse, Transaction, ValidationCode
from repro.ledger.rwset import ReadWriteSet
from repro.lifecycle.events import LifecycleBus, LifecycleEvent, LifecycleEventType
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.observability import (
    CATEGORY_PEER,
    CATEGORY_STAGE,
    CATEGORY_TX,
    LIFECYCLE_STAGES,
    STAGE_BLOCK_WAIT,
    STAGE_COMMIT,
    STAGE_CONSENSUS,
    STAGE_ENDORSE,
    STAGE_PREPARE,
    STAGE_SUBMIT,
    MetricsRegistry,
    ObservabilityConfig,
    SpanTracer,
    TimeSeriesSampler,
    build_attempt_span,
    chrome_trace_document,
    critical_path_from_trace,
    critical_path_report,
    dumps,
    format_report,
    metrics_document,
    stage_durations,
    write_chrome_trace,
    write_metrics,
    write_span_jsonl,
)
from repro.sim.engine import Simulator
from repro.sim.shard import ExecutionConfig

GOLDEN_DIR = Path(__file__).parent / "golden"
sys.path.insert(0, str(GOLDEN_DIR))

from generate_lifecycle_golden import golden_config  # noqa: E402

GOLDEN = json.loads((GOLDEN_DIR / "lifecycle_golden.json").read_text())

TRACE_ALL = ObservabilityConfig(trace=True, metrics=True)


def traced_config(**overrides) -> ExperimentConfig:
    """A small, fast experiment with full observability enabled."""
    config = ExperimentConfig(
        variant="fabric-1.4",
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            observability=TRACE_ALL,
            **overrides.pop("network_kwargs", {}),
        ),
        arrival_rate=80.0,
        duration=2.0,
        zipf_skew=1.0,
        repetitions=1,
        seed=7,
    )
    for name, value in overrides.items():
        setattr(config, name, value)
    return config


def committed_tx() -> Transaction:
    """A hand-built committed transaction with every pipeline timestamp set."""
    tx = Transaction(
        tx_id="tx-1",
        client_name="client-0",
        chaincode_name="smallbank",
        function="transfer",
        submitted_at=1.0,
    )
    tx.endorsements = [
        EndorsementResponse(
            peer_name="org1-peer0",
            org_name="org1",
            rwset=ReadWriteSet(),
            received_at=1.01,
            completed_at=1.05,
        ),
        EndorsementResponse(
            peer_name="org2-peer0",
            org_name="org2",
            rwset=ReadWriteSet(),
            received_at=1.02,
            completed_at=1.08,
        ),
    ]
    tx.endorsement_completed_at = 1.08
    tx.arrived_at_orderer_at = 1.10
    tx.ordered_at = 1.40
    tx.block_number = 3
    tx.validation_code = ValidationCode.VALID
    tx.committed_at = 1.55
    return tx


# --------------------------------------------------------- ObservabilityConfig
def test_observability_config_disabled_by_default():
    config = ObservabilityConfig()
    assert not config.enabled
    config.validate()


@pytest.mark.parametrize("kwargs", [{"trace": True}, {"metrics": True}])
def test_any_observability_knob_enables_the_config(kwargs):
    assert ObservabilityConfig(**kwargs).enabled


@pytest.mark.parametrize("interval", [0.0, -1.0, float("inf"), float("nan")])
def test_observability_config_rejects_bad_sample_interval(interval):
    with pytest.raises(ConfigurationError):
        ObservabilityConfig(metrics=True, sample_interval=interval).validate()


# -------------------------------------------------------------- span building
def test_stage_durations_cover_the_whole_committed_attempt():
    tx = committed_tx()
    stages = stage_durations(tx, block_created_at=1.25)
    assert set(stages) == {
        STAGE_ENDORSE,
        STAGE_SUBMIT,
        STAGE_BLOCK_WAIT,
        STAGE_CONSENSUS,
        STAGE_COMMIT,
    }
    assert sum(stages.values()) == pytest.approx(tx.total_latency)
    assert stages[STAGE_BLOCK_WAIT] == pytest.approx(0.15)
    assert stages[STAGE_CONSENSUS] == pytest.approx(0.15)


def test_stage_durations_without_block_time_merge_the_ordering_queue():
    stages = stage_durations(committed_tx())
    assert STAGE_CONSENSUS not in stages
    assert stages[STAGE_BLOCK_WAIT] == pytest.approx(0.30)


def test_stage_durations_of_endorsement_failure_charge_the_endorse_stage():
    tx = Transaction(
        tx_id="tx-2",
        client_name="client-0",
        chaincode_name="smallbank",
        function="transfer",
        submitted_at=2.0,
    )
    tx.validation_code = ValidationCode.ENDORSEMENT_TIMEOUT
    tx.committed_at = 2.5
    assert stage_durations(tx) == {STAGE_ENDORSE: pytest.approx(0.5)}


def test_attempt_span_nests_one_child_per_endorsing_peer():
    root = build_attempt_span(
        committed_tx(), status="committed", failure=None, end_time=1.55, block_created_at=1.25
    )
    assert root.category == CATEGORY_TX
    assert root.args["status"] == "committed"
    assert root.args["block"] == 3
    endorse = root.children[0]
    assert endorse.name == STAGE_ENDORSE
    assert [child.category for child in endorse.children] == [CATEGORY_PEER, CATEGORY_PEER]
    assert [child.name for child in endorse.children] == ["org1-peer0", "org2-peer0"]
    assert endorse.children[0].start == 1.01
    assert endorse.children[0].end == 1.05
    stage_names = [child.name for child in root.children]
    assert stage_names == [
        STAGE_ENDORSE,
        STAGE_SUBMIT,
        STAGE_BLOCK_WAIT,
        STAGE_CONSENSUS,
        STAGE_COMMIT,
    ]


def test_attempt_span_carries_the_two_phase_prepare_window():
    tx = committed_tx()
    tx.channel = 0
    tx.partner_channel = 1
    tx.prepare_started_at = 1.09
    tx.prepare_completed_at = 1.10
    root = build_attempt_span(tx, status="committed", failure=None, end_time=1.55)
    names = [child.name for child in root.children]
    assert STAGE_PREPARE in names
    prepare = root.children[names.index(STAGE_PREPARE)]
    assert prepare.duration == pytest.approx(0.01)
    assert prepare.args["partner_channel"] == 1
    assert root.args["channel"] == 0
    assert root.args["partner_channel"] == 1


def test_attempt_span_records_retry_lineage_in_args():
    tx = committed_tx()
    tx.attempt = 2
    tx.origin_tx_id = "tx-0"
    root = build_attempt_span(tx, status="committed", failure=None, end_time=1.55)
    assert root.args["attempt"] == 2
    assert root.args["origin_tx_id"] == "tx-0"


def test_span_as_dict_round_trips_through_json():
    root = build_attempt_span(
        committed_tx(), status="committed", failure=None, end_time=1.55, block_created_at=1.25
    )
    data = json.loads(json.dumps(root.as_dict()))
    assert data["name"] == CATEGORY_TX
    assert len(data["children"]) == 5


# ----------------------------------------------------------------- SpanTracer
def emit(bus: LifecycleBus, event_type: LifecycleEventType, time: float, tx: Transaction):
    bus.emit(LifecycleEvent(type=event_type, time=time, transaction=tx))


def test_span_tracer_builds_one_tree_per_attempt_in_submission_order():
    bus = LifecycleBus()
    tracer = SpanTracer(bus)
    first = committed_tx()
    second = committed_tx()
    second.tx_id = "tx-9"
    emit(bus, LifecycleEventType.SUBMITTED, 1.0, first)
    emit(bus, LifecycleEventType.SUBMITTED, 1.1, second)
    emit(bus, LifecycleEventType.COMMITTED, 1.55, first)
    assert tracer.attempts == 2
    roots = tracer.finalize({None: {3: 1.25}})
    assert [root.args["tx_id"] for root in roots] == ["tx-1", "tx-9"]
    assert roots[0].args["status"] == "committed"
    # The second attempt never terminated before the run stopped.
    assert roots[1].args["status"] == "incomplete"


def test_span_tracer_detach_stops_listening():
    bus = LifecycleBus()
    tracer = SpanTracer(bus)
    tracer.detach()
    emit(bus, LifecycleEventType.SUBMITTED, 1.0, committed_tx())
    assert tracer.attempts == 0


# ------------------------------------------------------------------- registry
def test_registry_snapshot_is_sorted_and_typed():
    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.counter("a").inc(2.0)
    registry.gauge("depth").set(4.0)
    histogram = registry.histogram("latency")
    for value in (1.0, 2.0, 3.0):
        histogram.observe(value)
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a", "b"]
    assert snapshot["counters"]["a"] == 2.0
    assert snapshot["gauges"]["depth"] == 4.0
    latency = snapshot["histograms"]["latency"]
    assert latency["count"] == 3
    assert latency["mean"] == pytest.approx(2.0)
    assert {"p50", "p95", "p99"} <= set(latency)


@pytest.mark.parametrize("conservative, observers", [(False, 1), (True, 2)])
def test_an_abort_asks_the_registry_for_a_name_not_for_a_snapshot(
    monkeypatch, conservative, observers
):
    # One observer per channel group: two channels on a shared clock are one
    # group, the same two on conservative epochs are a group each.
    snapshots = []
    snapshot = MetricsRegistry.snapshot
    monkeypatch.setattr(
        MetricsRegistry, "snapshot", lambda self: snapshots.append(self) or snapshot(self)
    )
    config = traced_config(
        network_kwargs=dict(
            channels=2,
            cross_channel_rate=0.05,
            faults=FaultConfig(endorsement_loss_rate=0.05, peer_crash_rate=0.05),
            execution=ExecutionConfig(conservative=conservative),
        )
    )
    record = run_experiment(config).analyses[0].record
    assert record.lifecycle_counts["aborted"] > 20
    rates = {name for row in record.observability.samples for name in row}
    assert any(name.startswith("abort_rate/") for name in rates)
    # The summary rendered in ``collect`` — not one rendering per abort.
    assert len(snapshots) == observers
    assert "latency" in snapshots[0] and "aborted" in snapshots[0]
    assert "aborted/never-happened" not in snapshots[0]


def test_sampler_prescheduled_ticks_stay_inside_the_run_window():
    sim = Simulator()
    sampler = TimeSeriesSampler(sim, interval=0.25)
    sampler.add_source("pending_events", lambda: float(sim.pending_events))
    sampler.start(1.0)
    sim.run_until_empty()
    # Ticks at 0.25, 0.5, 0.75 — strictly inside (0, duration).
    assert [row["time"] for row in sampler.samples] == [0.25, 0.5, 0.75]
    assert sim.now < 1.0
    sampler.sample_now(1.0)
    assert sampler.samples[-1]["time"] == 1.0


def test_sampler_rate_columns_report_per_second_rates():
    sim = Simulator()
    sampler = TimeSeriesSampler(sim, interval=1.0)
    cumulative = {"value": 0.0}
    sampler.add_rate("tps", lambda: cumulative["value"])
    sampler.sample_now(0.0)
    cumulative["value"] = 50.0
    sampler.sample_now(2.0)
    assert sampler.samples[1]["tps"] == pytest.approx(25.0)


# ------------------------------------------------------------ traced run shape
@pytest.fixture(scope="module")
def traced_result():
    return run_experiment(traced_config())


def test_traced_run_materializes_one_span_tree_per_attempt(traced_result):
    record = traced_result.analyses[0].record
    data = record.observability
    assert data is not None
    assert len(data.spans) == record.lifecycle_counts["submitted"]
    for root in data.spans:
        assert root.category == CATEGORY_TX
        assert root.args["status"] in {"committed", "aborted", "incomplete"}
        for child in root.children:
            assert child.category in {CATEGORY_STAGE, CATEGORY_PEER}
            assert child.name in LIFECYCLE_STAGES or child.category == CATEGORY_PEER


def test_traced_run_summary_counters_match_the_lifecycle_record(traced_result):
    record = traced_result.analyses[0].record
    counters = record.observability.summary["counters"]
    for name, count in record.lifecycle_counts.items():
        assert counters.get(name, 0) == count


def test_traced_run_samples_carry_the_expected_columns(traced_result):
    data = traced_result.analyses[0].record.observability
    assert data.samples, "the sampler produced no rows"
    columns = set(data.samples[-1])
    assert {
        "time",
        "pending_events",
        "engine_events_per_s",
        "submit_rate",
        "tps",
        "goodput",
        "abort_rate",
        "queue/orderer",
    } <= columns


def test_traced_run_folds_the_engine_profile_into_the_summary(traced_result):
    engine = traced_result.analyses[0].record.observability.summary["engine"]
    assert engine["events"] > 0
    assert engine["wall_seconds"] >= 0.0


def test_traced_run_metrics_expose_quantiles_and_stage_latency(traced_result):
    metrics = traced_result.analyses[0].metrics
    assert {"p50", "p95", "p99"} <= set(metrics.latency_quantiles)
    assert set(metrics.stage_latency) <= set(LIFECYCLE_STAGES)
    for row in metrics.stage_latency.values():
        assert row["count"] > 0
        assert row["mean_s"] >= 0.0


# -------------------------------------------------------- zero cost / identity
def test_disabled_observability_creates_no_observer():
    network = build_network(
        config=NetworkConfig(cluster="C1", database="leveldb", block_size=10),
        chaincode_factory=ExperimentConfig().build_chaincode,
        variant_factory="fabric-1.4",
        seed=7,
    )
    (group,) = network.groups
    assert group.observer is None
    assert not network.bus._listeners
    assert network.sim.pending_events == 0


def test_untraced_run_record_carries_no_observability_data():
    config = traced_config()
    config.network.observability = ObservabilityConfig()
    record = run_experiment(config).analyses[0].record
    assert record.observability is None


def test_cell_hash_ignores_observability_enabled_or_not():
    untraced = traced_config()
    untraced.network.observability = ObservabilityConfig()
    traced = traced_config()
    assert untraced.cell_hash() == traced.cell_hash()


@pytest.mark.parametrize("variant,channels", [("fabric-1.4", 1), ("fabric++", 4)])
def test_golden_record_is_bit_identical_with_tracing_enabled(variant, channels):
    """The in-test enforcement of the zero-cost contract: a *traced* run of a
    golden cell reproduces every pinned metric and the pinned cell hash."""
    config = golden_config(variant, channels)
    config.network.observability = TRACE_ALL
    expected = GOLDEN[f"{variant}/channels={channels}"]
    assert config.cell_hash() == expected["cell_hash"]
    metrics = run_experiment(config).analyses[0].metrics
    actual = {
        "cell_hash": config.cell_hash(),
        "submitted_transactions": metrics.submitted_transactions,
        "committed_transactions": metrics.committed_transactions,
        "blocks": metrics.blocks,
        "average_block_fill": metrics.average_block_fill,
        "average_latency": metrics.average_latency,
        "committed_throughput": metrics.committed_throughput,
        "successful_throughput": metrics.successful_throughput,
        "orderer_utilization": metrics.orderer_utilization,
        "validation_utilization": metrics.validation_utilization,
        "endorsement_utilization": metrics.endorsement_utilization,
        "failures": metrics.failure_report.as_dict(),
    }
    for name in sorted(expected):
        assert actual[name] == expected[name], f"{name} diverged with tracing enabled"


# ------------------------------------------------------- export determinism
def test_repeated_runs_export_byte_identical_documents(tmp_path):
    exports = []
    for attempt in range(2):
        data = run_experiment(traced_config()).analyses[0].record.observability
        trace_path = tmp_path / f"trace-{attempt}.json"
        metrics_path = tmp_path / f"metrics-{attempt}.json"
        spans_path = tmp_path / f"spans-{attempt}.jsonl"
        write_chrome_trace(str(trace_path), [data], ["run"])
        write_metrics(str(metrics_path), data)
        write_span_jsonl(str(spans_path), data.spans)
        exports.append(
            (trace_path.read_bytes(), metrics_path.read_bytes(), spans_path.read_bytes())
        )
    assert exports[0] == exports[1]


def test_serial_and_parallel_runners_export_identical_traces():
    config = traced_config(repetitions=2, duration=1.0, arrival_rate=40.0)
    serial = ExperimentRunner(workers=1).run(config)
    parallel = ExperimentRunner(workers=2).run(config)
    for left, right in zip(serial.analyses, parallel.analyses):
        left_doc = dumps(chrome_trace_document([left.record.observability]))
        right_doc = dumps(chrome_trace_document([right.record.observability]))
        assert left_doc == right_doc
        assert dumps(metrics_document(left.record.observability)) == dumps(
            metrics_document(right.record.observability)
        )


# --------------------------------------------------------------- critical path
def test_critical_path_agrees_in_process_and_from_trace(traced_result):
    data = traced_result.analyses[0].record.observability
    in_process = critical_path_report(data.spans)
    from_trace = critical_path_from_trace(json.loads(dumps(chrome_trace_document([data]))))
    # Trace timestamps are rounded to microseconds, so the float columns can
    # differ at the nanosecond scale — the rendered tables must agree exactly.
    assert format_report(in_process) == format_report(from_trace)
    assert in_process["committed"] == from_trace["committed"]
    assert [row["stage"] for row in in_process["stages"]] == [
        row["stage"] for row in from_trace["stages"]
    ]
    assert in_process["committed"] > 0
    assert sum(row["dominant_count"] for row in in_process["stages"]) == in_process["committed"]
    rendered = format_report(in_process)
    assert "dominant" in rendered


def test_critical_path_report_of_no_spans_is_empty():
    report = critical_path_report([])
    assert report["committed"] == 0
    assert report["stages"] == []
    assert format_report(report) == "committed transactions: 0"


# -------------------------------------------------------------- fault markers
def test_fault_injections_become_trace_markers():
    config = traced_config(
        network_kwargs={"faults": FaultConfig(orderer_outages=((0.5, 0.4),))}
    )
    data = run_experiment(config).analyses[0].record.observability
    kinds = {marker["kind"] for marker in data.markers}
    assert {"orderer_outage_start", "orderer_outage_end"} <= kinds
    times = [marker["time"] for marker in data.markers]
    assert times == sorted(times)
