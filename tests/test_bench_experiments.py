"""Tests for the experiment registry, its executor and the paper reference data."""

from __future__ import annotations

from collections.abc import Mapping
from types import SimpleNamespace

import pytest
from corpus import RecordingRunner, assert_pinned, grid_entry

from repro.bench import paper_data
from repro.bench.experiments import (
    BASELINE_COLUMNS,
    EXPERIMENTS,
    PAPER_SCALE,
    QUICK_SCALE,
    STANDARD_SCALE,
    SWEEP_COLUMNS,
    ExperimentReport,
    Scale,
    base_config,
    regenerate,
    scaled_synthetic,
    scaled_workload,
)
from repro.bench.harness import RESULT_COLUMNS, ExperimentConfig, ExperimentResult, pct_column
from repro.bench.runner import SWEEP_HEADERS, ExperimentRunner
from repro.core.failures import MVCC, FailureType
from repro.core.metrics import ExperimentMetrics, FailureReport
from repro.errors import ConfigurationError

#: A deliberately tiny scale so these structural tests stay fast.
TEST_SCALE = Scale(
    name="test",
    duration=2.5,
    repetitions=1,
    rates=(30, 80),
    block_sizes=(10, 40),
    genchain_keys=3000,
    dv_voters=40,
    scm_units=(30, 30, 30, 30, 60),
    ehr_patients=40,
    drm_artworks=60,
)


def test_scales_are_ordered_by_fidelity():
    assert QUICK_SCALE.duration < STANDARD_SCALE.duration < PAPER_SCALE.duration
    assert PAPER_SCALE.duration == 180.0
    assert PAPER_SCALE.repetitions == 3
    assert PAPER_SCALE.genchain_keys == 100_000
    assert PAPER_SCALE.dv_voters == 1000


def test_experiment_index_covers_every_table_and_figure():
    expected_figures = {f"fig{number}" for number in range(4, 27)}
    assert expected_figures <= set(EXPERIMENTS)
    assert {"table2", "table4"} <= set(EXPERIMENTS)
    assert {"ablation-adaptive", "ablation-readonly", "ablation-client-check"} <= set(EXPERIMENTS)
    assert {"fault-resilience", "fault-retry"} <= set(EXPERIMENTS)


# ------------------------------------------------------------- registry validation
@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_spec_is_complete_and_resolvable(experiment_id):
    spec = EXPERIMENTS[experiment_id]
    assert spec.artefact == "extension" or spec.artefact.startswith(("Table ", "Figure "))
    # Every paper artefact carries the section that discusses it.
    assert spec.section and (spec.section != "extension" or spec.artefact == "extension")
    assert spec.title and spec.summary and spec.sweep_axes and spec.variants
    assert spec.expected_trend
    assert len(set(spec.headers)) == len(spec.headers)
    if spec.body is not None:
        assert not spec.grid and spec.columns
        return
    assert spec.grid
    for axis in spec.grid:
        values = axis.values(QUICK_SCALE) if callable(axis.values) else axis.values
        if isinstance(values, str):
            assert isinstance(getattr(QUICK_SCALE, values), tuple), f"{values} is no Scale axis"
        else:
            assert isinstance(values, (tuple, Mapping)) and values
    names = [axis.name for axis in spec.grid]
    assert len(set(names)) == len(names), "axis overrides must be unambiguous"
    # Every value column resolves in the accessor table (or the feature's own).
    for column in spec.columns:
        if spec.reduce is not None:
            assert column in SWEEP_COLUMNS
        elif spec.baseline is not None and column in BASELINE_COLUMNS:
            continue
        else:
            assert column in RESULT_COLUMNS
    assert (spec.baseline is not None) == any(c in BASELINE_COLUMNS for c in spec.columns)


def test_sweep_table_reads_the_same_accessor_table():
    assert set(SWEEP_HEADERS) <= set(RESULT_COLUMNS)


def synthetic_result(repetitions: int = 2) -> ExperimentResult:
    """A result whose repetitions hold pairwise different numbers everywhere."""
    metrics = []
    for repetition in range(repetitions):
        counts = {failure: 11 + 7 * index + repetition for index, failure in enumerate(FailureType)}
        metrics.append(
            ExperimentMetrics(
                variant="fabric-1.4", chaincode="EHR", workload="test", arrival_rate=100.0,
                block_size=100, duration=10.0, submitted_transactions=997 + repetition,
                committed_transactions=600, failure_report=FailureReport(1000, counts),
                average_latency=0.51 + repetition, committed_throughput=61.3 + repetition,
                successful_throughput=40.0, blocks=5, average_block_fill=20.0,
                orderer_utilization=0.1, validation_utilization=0.1, endorsement_utilization=0.1,
                function_call_latency_ms={"GetState": 0.77, "PutState": 1.91, "GetRange": 88.3},
                resubmissions=41 + repetition, retry_rate_denied=3, logical_requests=853,
                committed_requests=591 + repetition, measurement_horizon=12.5,
            )
        )
    analyses = [SimpleNamespace(metrics=metric) for metric in metrics]
    return ExperimentResult(config=ExperimentConfig(), analyses=analyses)


def test_every_reported_number_has_one_header():
    # No two headers may read the same number: on a result whose every
    # number differs, every numeric column differs from every other.
    result = synthetic_result()
    configuration = ("variant", "block_size", "arrival_rate", "zipf_skew", "placement")
    values = {
        header: result.value(header) for header in RESULT_COLUMNS if header not in configuration
    }
    assert len(set(values.values())) == len(values), values


def test_failure_class_headers_are_generated_from_the_taxonomy():
    result = synthetic_result()
    reports = [metric.failure_report for metric in result.metrics]
    for failure in FailureType:
        expected = sum(report.pct(failure) for report in reports) / len(reports)
        assert result.value(pct_column(failure)) == expected
    assert result.value("mvcc_pct") == sum(report.pct(*MVCC) for report in reports) / 2
    # Counts add up over the repetitions; everything else is their mean.
    assert result.value("submitted_transactions") == 997 + 998
    assert result.value("resubmissions") == 41 + 42
    assert result.value("committed_requests") == 591.5
    assert result.value("DeleteState_ms") == 0.0  # no repetition made the call


def test_override_of_an_undeclared_axis_names_the_declared_ones():
    runner = ExperimentRunner()
    with pytest.raises(ConfigurationError, match=r"'skews'.*declares: chaincode, cluster, arrival_rate, block_size"):
        regenerate(["fig4"], TEST_SCALE, runner, {"fig4": {"skews": (0.0,)}})
    with pytest.raises(ConfigurationError, match="declares: none"):
        regenerate(["table2"], TEST_SCALE, runner, {"table2": {"chaincode": ("EHR",)}})
    with pytest.raises(ConfigurationError, match="has no value 'fast'"):
        regenerate(["fig23"], TEST_SCALE, runner, {"fig23": {"system": ("fast",)}})


def test_unknown_ids_and_stray_overrides_are_errors():
    runner = ExperimentRunner()
    with pytest.raises(ConfigurationError, match="no experiment 'fig99'; known: table2, table4, fig4"):
        regenerate(["fig6", "fig99"], TEST_SCALE, runner)
    with pytest.raises(ConfigurationError, match="axes given for 'fig7', not requested"):
        regenerate(["fig6"], TEST_SCALE, runner, {"fig7": {"block_size": (10,)}})


# -------------------------------------------------------------- same grid as ever
@pytest.mark.parametrize("experiment_id", list(EXPERIMENTS))
def test_quick_grid_is_the_pinned_one(experiment_id):
    # The corpus holds each id's headers and the cell hashes its quick grid
    # submits, in order, first captured from the hand-written ``figureNN_*``
    # functions this registry replaced (commit 968cd21).  The cell hash covers
    # every field of the configuration, so an equal entry means the executor
    # simulates exactly the cells, in exactly the order, they did.
    assert_pinned(f"grid/{experiment_id}", "cells", grid_entry(experiment_id))


def test_scaled_workload_applies_population_sizes():
    assert scaled_workload("EHR", TEST_SCALE).chaincode_kwargs["patients"] == 40
    assert scaled_workload("DV", TEST_SCALE).chaincode_kwargs["voters"] == 40
    assert scaled_workload("SCM", TEST_SCALE).chaincode_kwargs["units_per_lsp"][-1] == 60
    assert scaled_workload("genChain", TEST_SCALE).chaincode_kwargs["num_keys"] == 3000
    assert scaled_synthetic("UH", TEST_SCALE).chaincode_kwargs["num_keys"] == 3000


def test_base_config_uses_table3_defaults():
    config = base_config(TEST_SCALE)
    assert config.network.cluster == "C2"
    assert config.network.block_size == 100
    assert config.arrival_rate == 100.0
    assert config.duration == TEST_SCALE.duration
    overridden = base_config(TEST_SCALE, block_size=25, arrival_rate=10)
    assert overridden.network.block_size == 25
    assert overridden.arrival_rate == 10


def test_experiment_report_helpers():
    report = ExperimentReport(
        experiment_id="demo",
        title="demo",
        headers=("variant", "rate", "value"),
        rows=[("a", 10, 1.0), ("a", 20, 2.0), ("b", 10, 3.0)],
    )
    assert report.column("rate") == [10, 20, 10]
    assert report.rows_where(variant="a") == [("a", 10, 1.0), ("a", 20, 2.0)]
    assert report.value("value", variant="b", rate=10) == 3.0
    with pytest.raises(ValueError):
        report.value("value", variant="a")


def test_table02_report_matches_declared_profiles():
    [report] = regenerate(["table2"], TEST_SCALE, ExperimentRunner())
    assert set(report.column("chaincode")) == {"EHR", "DV", "SCM", "DRM", "genChain"}
    # The EHR addEhr row must report 2 reads and 2 writes as in Table 2.
    row = report.rows_where(chaincode="EHR", function="addEhr")[0]
    assert row[report.headers.index("reads")] == 2
    assert row[report.headers.index("writes")] == 2


def test_figure06_report_structure():
    [report] = regenerate(["fig6"], TEST_SCALE, ExperimentRunner())
    assert report.column("block_size") == list(TEST_SCALE.block_sizes)
    assert all(value > 0 for value in report.column("latency_s"))


def test_figure11_covers_both_databases():
    [report] = regenerate(["fig11"], TEST_SCALE, ExperimentRunner())
    assert sorted(report.column("database")) == ["couchdb", "leveldb"]


def test_figure13_covers_all_policies():
    [report] = regenerate(["fig13"], TEST_SCALE, ExperimentRunner())
    assert report.column("policy") == ["P0", "P1", "P2", "P3"]


def test_figure15_failures_increase_with_skew():
    [report] = regenerate(
        ["fig15"], TEST_SCALE, ExperimentRunner(), {"fig15": {"zipf_skew": (0.0, 2.0)}}
    )
    low = report.value("failures_pct", zipf_skew=0.0)
    high = report.value("failures_pct", zipf_skew=2.0)
    assert high > low


# ------------------------------------------------------------------- one plan
def test_several_ids_are_one_batch_that_runs_each_cell_once():
    # Figures 6, 7 and 9 read different columns off the same block-size grid.
    ids = ["fig6", "fig7", "fig9"]
    runner = ExperimentRunner()
    reports = regenerate(ids, TEST_SCALE, runner)
    cells = len(TEST_SCALE.block_sizes)
    assert runner.stats.tasks_total == 3 * cells
    assert (runner.stats.tasks_run, runner.stats.deduplicated) == (cells, 2 * cells)
    assert [report.experiment_id for report in reports] == ids
    for report in reports:
        assert report == regenerate([report.experiment_id], TEST_SCALE, ExperimentRunner())[0]


def test_a_body_artefact_rides_along_in_request_order():
    runner = RecordingRunner()
    reports = regenerate(["fig6", "table2", "fig11"], TEST_SCALE, runner)
    assert [report.experiment_id for report in reports] == ["fig6", "table2", "fig11"]
    assert len(runner.cell_hashes) == len(TEST_SCALE.block_sizes) + 2
    assert reports[1] == regenerate(["table2"], TEST_SCALE, runner)[0]


# ------------------------------------------------------------------- paper data
def test_paper_reference_tables_are_complete():
    assert set(paper_data.TABLE4_LATENCY_S) == {
        "ReadHeavy",
        "InsertHeavy",
        "UpdateHeavy",
        "RangeHeavy",
        "DeleteHeavy",
    }
    for workload, values in paper_data.TABLE4_FAILURES_PCT.items():
        assert set(values) == {"couchdb", "leveldb"}
        assert all(value >= 0 for value in values.values())
    assert paper_data.TABLE4_FUNCTION_CALL_LATENCY_MS["GetRange"]["couchdb"] == 88.0


def test_paper_fig25_reference_shows_fabricsharp_winning_update_heavy():
    reference = paper_data.FIG25_WORKLOAD_FAILURES_PCT["UH"]
    assert reference["fabricsharp"] < reference["fabric-1.4"]
    skew_reference = paper_data.FIG25_SKEW_FAILURES_PCT[2.0]
    assert skew_reference["fabricsharp"] < skew_reference["fabric-1.4"]
