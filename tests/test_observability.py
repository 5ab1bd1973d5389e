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
import math
import pickle
import random
import statistics
import sys
import weakref
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.bench.runner import ExperimentRunner
from repro.core.failures import FailureType, failure_type_of
from repro.errors import ConfigurationError
from repro.faults import FaultConfig
from repro.ledger.block import EndorsementResponse, Transaction, ValidationCode
from repro.ledger.rwset import ReadWriteSet
from repro.lifecycle.events import LifecycleBus, LifecycleEventType
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
    Histogram,
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
from repro.observability.observer import ObservabilityData, RunObserver
from repro.sim.engine import Simulator
from repro.sim.stats import percentile

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


def committed_tx(cls: type = Transaction) -> Transaction:
    """A hand-built committed transaction with every pipeline timestamp set."""
    tx = cls(
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
def test_span_tracer_builds_one_tree_per_attempt_in_submission_order():
    bus = LifecycleBus()
    # A stub cut-time lookup: block 3 of the one channel was cut at 1.25.
    tracer = SpanTracer([bus], [{3: 1.25}.__getitem__])
    first = committed_tx()
    second = committed_tx()
    second.tx_id = "tx-9"
    bus.emit(LifecycleEventType.SUBMITTED, first)
    bus.emit(LifecycleEventType.SUBMITTED, second)
    bus.emit(LifecycleEventType.COMMITTED, first)
    assert tracer.attempts == 2
    roots = tracer.finalize()
    assert [root.args["tx_id"] for root in roots] == ["tx-1", "tx-9"]
    assert roots[0].args["status"] == "committed"
    # The second attempt never terminated before the run stopped.
    assert roots[1].args["status"] == "incomplete"


def test_span_tracer_reads_the_end_and_the_failure_off_the_transaction():
    buses = [LifecycleBus(), LifecycleBus()]
    tracer = SpanTracer(buses, [{3: 1.25}.__getitem__, {3: 1.5}.__getitem__])
    committed, aborted = committed_tx(), committed_tx()
    aborted.tx_id, aborted.channel = "tx-c1-00000000", 1
    aborted.validation_code = ValidationCode.MVCC_READ_CONFLICT
    aborted.conflicting_block = 3
    aborted.committed_at = 1.75
    buses[0].emit(LifecycleEventType.SUBMITTED, committed)
    buses[1].emit(LifecycleEventType.SUBMITTED, aborted)
    buses[1].emit(LifecycleEventType.ABORTED, aborted)
    buses[0].emit(LifecycleEventType.COMMITTED, committed)
    assert tracer.attempts == 2
    roots = tracer.finalize()
    assert [(root.args["status"], root.end) for root in roots] == [
        ("committed", 1.55),
        ("aborted", 1.75),
    ]
    assert roots[1].args["failure_type"] == FailureType.MVCC_INTRA_BLOCK.value


class WeakTransaction(Transaction):
    """A transaction a test can hold a weak reference to."""

    __slots__ = ("__weakref__",)


def test_an_ended_attempt_leaves_no_reference_to_its_transaction_in_the_tracer():
    bus = LifecycleBus()
    tracer = SpanTracer([bus], [{3: 1.25}.__getitem__])
    ended = committed_tx(WeakTransaction)
    in_flight = WeakTransaction("tx-2", "client-0", "smallbank", "transfer", submitted_at=1.0)
    bus.emit(LifecycleEventType.SUBMITTED, ended)
    bus.emit(LifecycleEventType.SUBMITTED, in_flight)
    bus.emit(LifecycleEventType.COMMITTED, ended)
    gone, pending = weakref.ref(ended), weakref.ref(in_flight)
    # The channel drops both attempts: only the tracer could keep them alive.
    del ended, in_flight
    assert gone() is None
    assert pending() is not None, "an attempt in flight is built at finalize"
    roots = tracer.finalize()
    assert pending() is None
    assert [(root.args["tx_id"], root.args["status"]) for root in roots] == [
        ("tx-1", "committed"),
        ("tx-2", "incomplete"),
    ]
    # The ended attempt's tree was built with its block's cut time.
    assert [child.name for child in roots[0].children][2:4] == [STAGE_BLOCK_WAIT, STAGE_CONSENSUS]


def _first_difference(actual: object, expected: object, path: str = "") -> str:
    """The path of the first key at which two ``as_dict()`` trees differ."""
    if isinstance(actual, dict) and isinstance(expected, dict):
        for key in [*actual, *(key for key in expected if key not in actual)]:
            if key not in actual or key not in expected:
                return f"{path}/{key}"
            found = _first_difference(actual[key], expected[key], f"{path}/{key}")
            if found:
                return found
        return ""
    if isinstance(actual, list) and isinstance(expected, list):
        for index, (left, right) in enumerate(zip(actual, expected)):
            found = _first_difference(left, right, f"{path}[{index}]")
            if found:
                return found
        if len(actual) != len(expected):
            return f"{path}[{min(len(actual), len(expected))}]"
        return ""
    return "" if actual == expected else path or "/"


def _recorded_attempt_spans(record) -> dict:
    """``(channel, tx_id) -> tree`` that :func:`build_attempt_span` gives from
    the recorded chain after the run, with each block's cut time."""
    trees = {}
    for channel in record.channel_records or [None]:
        recorded = record if channel is None else channel.record
        for tx in recorded.transactions:
            failure = None
            if tx.committed_at is None:
                status, end = "incomplete", tx.submitted_at
            elif tx.validation_code in (None, ValidationCode.VALID):
                status, end = "committed", tx.committed_at
            else:
                status, end = "aborted", tx.committed_at
                failure = failure_type_of(tx).value
            block = tx.block_number
            cut = recorded.ledger.cut_time(block) if block is not None else None
            trees[(tx.channel, tx.tx_id)] = build_attempt_span(tx, status, failure, end, cut)
    return trees


def _traced_recorded_runs() -> dict:
    """The faulted coupled four-channel cell and the chaos pin cells, traced
    and with their chains recorded."""
    from test_lifecycle_events import coupled_faulted_cell
    from test_sharded_execution import chaos_audit_cell, run_cell
    from test_single_channel_pins import CELLS

    from repro.sim.shard import ExecutionConfig

    cells = {
        "coupled-faulted-4ch": coupled_faulted_cell(observability=ObservabilityConfig(trace=True)),
        "chaos/C2": CELLS["chaos/C2"][0],
        "chaos-audit": chaos_audit_cell(ExecutionConfig()),
    }
    return {name: run_cell(config, record_chain=True)[1] for name, config in cells.items()}


@pytest.fixture(scope="module")
def traced_recorded_runs() -> dict:
    return _traced_recorded_runs()


@pytest.mark.parametrize("cell", ["coupled-faulted-4ch", "chaos/C2", "chaos-audit"])
def test_each_span_is_the_tree_of_its_recorded_attempt(traced_recorded_runs, cell):
    # Built when the attempt ended, each tree must equal the one built after
    # the run from the recorded chain: nothing a tree reads moves later.
    record = traced_recorded_runs[cell]
    expected = _recorded_attempt_spans(record)
    spans = record.observability.spans
    assert len(spans) == len(expected) == record.submitted_count
    statuses = set()
    for span in spans:
        key = (span.args.get("channel"), span.args["tx_id"])
        actual, wanted = span.as_dict(), expected[key].as_dict()
        where = _first_difference(actual, wanted)
        assert not where, f"channel {key[0]} tx {key[1]}: first difference at {where}"
        statuses.add(span.args["status"])
    assert {"committed", "aborted"} <= statuses


def test_observability_data_pickles_to_equal_trees_and_shared_args_are_read_only(
    traced_recorded_runs,
):
    data = traced_recorded_runs["chaos/C2"].observability
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        clone = pickle.loads(pickle.dumps(data, protocol=protocol))
        assert isinstance(clone, ObservabilityData)
        assert clone.spans == data.spans
        assert [span.as_dict() for span in clone.spans] == [span.as_dict() for span in data.spans]
    for spans in (data.spans, clone.spans):
        stages = [stage for root in spans for stage in root.children]
        legs = [leg for stage in stages for leg in stage.children]
        assert legs and all(leg.category == CATEGORY_PEER for leg in legs)
        # One args mapping per organization, shared by all of its peer legs.
        shared = {}
        for leg in legs:
            assert shared.setdefault(leg.args["org"], leg.args) is leg.args
        with pytest.raises(TypeError):
            legs[0].args["org"] = "elsewhere"
        # A leaf without args shares the one empty mapping, read-only too.
        bare = [stage for stage in stages if not stage.children and not stage.args]
        assert bare and all(stage.args is bare[0].args for stage in bare)
        with pytest.raises(TypeError):
            bare[0].args["note"] = "mutated"
        assert all(type(stage.children) is tuple for stage in stages)


# ------------------------------------------------------------------- registry
def test_registry_snapshot_is_sorted_and_typed():
    registry = MetricsRegistry()
    registry.counter("b").inc()
    registry.counter("a").inc(2.0)
    registry.gauge("depth").set(4.0)
    histogram = registry.histogram("latency")
    for value in range(101, 0, -1):
        histogram.observe(float(value))
    registry.histogram("empty")
    snapshot = registry.snapshot()
    assert list(snapshot["counters"]) == ["a", "b"]
    assert snapshot["counters"]["a"] == 2.0
    assert snapshot["gauges"]["depth"] == 4.0
    assert list(snapshot["histograms"]) == ["empty", "latency"]
    assert snapshot["histograms"]["empty"] == {"count": 0}
    # Exact: the quantiles are percentiles of the samples, the stdev the population's.
    assert snapshot["histograms"]["latency"] == {
        "count": 101,
        "mean": 51.0,
        "min": 1.0,
        "max": 101.0,
        "stdev": math.sqrt(850.0),
        "p50": 51.0,
        "p95": 96.0,
        "p99": 100.0,
    }



def test_histogram_moments_are_the_population_moments():
    histogram = MetricsRegistry().histogram("latency")
    samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]
    for value in samples:
        histogram.observe(value)
    snapshot = histogram.snapshot()
    assert snapshot["count"] == len(samples)
    assert snapshot["mean"] == statistics.fmean(samples) == 5.0
    assert snapshot["stdev"] == statistics.pstdev(samples) == 2.0
    assert (snapshot["min"], snapshot["max"]) == (2.0, 9.0)


def test_histogram_of_one_sample_is_that_sample_with_no_spread():
    histogram = MetricsRegistry().histogram("latency")
    histogram.observe(3.0)
    assert histogram.snapshot() == {
        "count": 1,
        "mean": 3.0,
        "min": 3.0,
        "max": 3.0,
        "stdev": 0.0,
        "p50": 3.0,
        "p95": 3.0,
        "p99": 3.0,
    }


def test_histogram_quantiles_do_not_depend_on_the_order_of_observation():
    rng = random.Random(17)
    samples = [rng.expovariate(4.0) for _ in range(999)]
    forward, shuffled = Histogram(), Histogram()
    for value in samples:
        forward.observe(value)
    rng.shuffle(samples)
    for value in samples:
        shuffled.observe(value)
    # The means go through ``sum()`` and may differ in the last bit; the rest may not.
    order_free = ("count", "min", "max", "p50", "p95", "p99")
    first, second = forward.snapshot(), shuffled.snapshot()
    assert {key: first[key] for key in order_free} == {key: second[key] for key in order_free}
    assert first["p50"] == percentile(samples, 0.5)


# ------------------------------------------------------------ observer counters
def test_observer_counters_are_the_bus_counts_summed_over_its_buses():
    buses = [LifecycleBus(), LifecycleBus()]
    observer = RunObserver(Simulator(), buses, ObservabilityConfig(metrics=True))
    for _ in range(3):
        buses[0].emit(LifecycleEventType.SUBMITTED, committed_tx())
    for _ in range(2):
        buses[1].emit(LifecycleEventType.SUBMITTED, committed_tx())
    buses[1].emit(LifecycleEventType.COMMITTED, committed_tx())
    counters = observer.collect().summary["counters"]
    assert counters["submitted"] == 5.0 and type(counters["submitted"]) is float
    assert counters["committed"] == 1.0
    # Read by a sampler column, so reported though never emitted.
    assert counters["aborted"] == 0.0
    # Neither emitted nor sampled: absent.
    assert "ordered" not in counters and "endorsed" not in counters


def test_an_unsampled_observer_reports_only_the_counters_of_emitted_types():
    bus = LifecycleBus()
    observer = RunObserver(
        Simulator(), [bus], ObservabilityConfig(trace=True), cut_times=[{3: 1.25}.__getitem__]
    )
    bus.emit(LifecycleEventType.SUBMITTED, committed_tx())
    counters = observer.collect().summary["counters"]
    assert counters == {"submitted": 1.0}


def test_observer_rate_columns_read_the_bus_counts_at_each_tick():
    buses = [LifecycleBus(), LifecycleBus()]
    observer = RunObserver(Simulator(), buses, ObservabilityConfig(metrics=True))
    observer.sampler.sample_now(0.0)
    for bus in buses:
        for _ in range(3):
            bus.emit(LifecycleEventType.SUBMITTED, committed_tx())
    buses[0].emit(LifecycleEventType.COMMITTED, committed_tx())
    observer.sampler.sample_now(2.0)
    row = observer.sampler.samples[-1]
    assert row["submit_rate"] == pytest.approx(3.0)
    assert row["tps"] == pytest.approx(0.5)
    assert row["goodput"] == pytest.approx(0.5)
    assert row["abort_rate"] == 0.0

def test_an_abort_asks_the_registry_for_a_name_not_for_a_snapshot(monkeypatch):
    # Two coupled channels on the shared clock: one group, one observer.
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
        )
    )
    record = run_experiment(config).analyses[0].record
    assert record.shard_count == 1
    assert record.lifecycle_counts["aborted"] > 20
    rates = {name for row in record.observability.samples for name in row}
    assert any(name.startswith("abort_rate/") for name in rates)
    # The summary rendered in ``collect`` — not one rendering per abort.
    assert len(snapshots) == 1
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


def test_an_observed_deployment_profiles_its_one_group_through_its_observer():
    # The observer's profile is the one way engine statistics reach a
    # summary: the deployment's one group drains under it.
    config = traced_config(network_kwargs=dict(channels=2, cross_channel_rate=0.0))
    # Metrics only: the profile is on, the tracer is not needed.
    config.network.observability = ObservabilityConfig(metrics=True)
    record = run_experiment(config).analyses[0].record
    assert record.shard_count == 1
    engine = record.observability.summary["engine"]
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
        chaincode="EHR",
        variant="fabric-1.4",
        seed=7,
    )
    assert network.group.observer is None
    # The channel's own tally is the only thing handling its bus.
    (channel,) = network.channels
    handlers = [handler for row in channel.bus._handlers for handler in row]
    assert handlers and all(handler.__self__ is channel.tally for handler in handlers)
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


@pytest.mark.parametrize("runs, names", [(1, None), (2, None), (2, ["left", "right"]), (0, None)])
def test_the_streamed_trace_is_the_canonical_document(tmp_path, traced_result, runs, names):
    data = traced_result.analyses[0].record.observability
    path = tmp_path / "trace.json"
    write_chrome_trace(str(path), [data] * runs, names)
    document = chrome_trace_document([data] * runs, names)
    assert path.read_text(encoding="utf-8") == dumps(document) + "\n"


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
