"""Tests for the experiment registry, its executor and the paper reference data."""

from __future__ import annotations

import hashlib
import json
from collections.abc import Mapping

import pytest

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
from repro.bench.harness import RESULT_COLUMNS, ExperimentResult
from repro.bench.runner import SWEEP_HEADERS, ExperimentRunner
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


def test_override_of_an_undeclared_axis_names_the_declared_ones():
    with pytest.raises(ConfigurationError, match=r"'skews'.*declares: chaincode, cluster, arrival_rate, block_size"):
        regenerate("fig4", TEST_SCALE, skews=(0.0,))
    with pytest.raises(ConfigurationError, match="declares: none"):
        regenerate("table2", TEST_SCALE, chaincode=("EHR",))
    with pytest.raises(ConfigurationError, match="has no value 'fast'"):
        regenerate("fig23", TEST_SCALE, system=("fast",))


# -------------------------------------------------------------- same grid as ever
class RecordingRunner(ExperimentRunner):
    """Records the submitted cells in order and returns before simulating."""

    def __init__(self):
        super().__init__(workers=1)
        self.cell_hashes = []

    def run_many(self, configs):
        self.cell_hashes.extend(config.cell_hash() for config in configs)
        return [ExperimentResult(config=config, analyses=[]) for config in configs]


#: Per id: the number of cells the quick-scale grid submits and the SHA-256
#: over ``(headers, ordered cell hashes)``, captured from the hand-written
#: ``figureNN_*`` functions this registry replaced (commit 968cd21).  The cell
#: hash covers every field of the configuration, so an equal digest means the
#: executor simulates exactly the cells, in exactly the order, they did.
QUICK_GRID_DIGESTS = {
    "table2": (0, "905f85719c029b26cb153163d75de45c5045cb14ded9ee43b026eae1417f93a7"),
    "table4": (10, "b0ca16206446db25c7c0bd8a478fad432de30e3107a7d864d36bb491ab91d341"),
    "fig4": (54, "b9c457c5d3231868e3e4d8bab18b8c04f5ef57744bec53f2da440bc86c072ebb"),
    "fig5": (27, "42b54938b9ad096115c6b74cf33f875b7ff3f0f9324621f4a16c5a32ba96eed9"),
    "fig6": (3, "d50c46018f066f6386f44135009091c0df4b2da3f510510e5be98acd5ebbf0e0"),
    "fig7": (3, "945f6ef992ed315df48115ee523f2f589d6d9377826b75d4527c9bc7795c0cf3"),
    "fig8": (3, "92a44988a2c5fdcc0061c6b9b54aabaf06b733e791efdbff5dc00a7292baa001"),
    "fig9": (3, "4afd302e6bfe0af95aa536d8017c2695c08cd9b5d8ae60be2c31034928cbd72e"),
    "fig10": (3, "cf100a17e1372890324e863e046b0e02d354f86ce3bb6263bbf148679f391740"),
    "fig11": (2, "e6f3d06e56b8da54cd86b6f890cc44e0f24ae0ca2661569c45e25eeb98170fa7"),
    "fig12": (5, "58fac6d595b8912a3c01485f8b162aacc7305123eeeb8b022e68ce62c9304495"),
    "fig13": (4, "223061deec4fd98864506a369d730b897cdee14d596c6e219e47745e62b3f1e4"),
    "fig14": (5, "0679b05f0d5ab7088c18857a4ea9bab86eb3ceabb7a01daa3547669b78638432"),
    "fig15": (3, "da52fe259868721d14f869d3425ca764c6f2895d340f6b68a7aa8c3c487dc38a"),
    "fig16": (6, "980e39c8dbe25861f97ddfc5ea1d134f47bd1501d6016af4ed1b1df0662f68f0"),
    "fig17": (6, "347c0cbc4ff6e42a271eb245f28c78645ec2c6f6b1643490c04d3638946095e3"),
    "fig18": (8, "f5cfd6a26298faf09e875ebacce9578911fbafac17de8de111d990860c46b814"),
    "fig19": (16, "2bdfedca082aeca41b961dacf5484ce58e185d9781284aa7514170658b8253e2"),
    "fig20": (6, "96458fb7ea361fbfd1d0cf0687cb7422ca9d7529913d7aec480904328741e0f0"),
    "fig21": (6, "92cc2e424ba80183b2b635f8212725c27331cdaf0bd03ff7f335d2f8a670f072"),
    "fig22": (16, "fd63fe8d7ea3299ff88f224d82b31fd5431cf6bb119dc674834d3559a45df33c"),
    "fig23": (6, "5d57ee9fd044f476a5443103ae787f0de54d59380fd4bde644a9ccabe31e1f2a"),
    "fig24": (6, "17e23789fa436867696822c12712b45400dc928c14c8ee8e39947eb7abea8ab3"),
    "fig25": (14, "a90b9637f60b9c2eab760f5857194bfd1b424d0a80acf8ff1228c708de28a2b4"),
    "fig26": (12, "b6ec9b8fa3cdd4fce59f231ff70ab31541af8298cd099a6cb43b22981c7c8943"),
    "ablation-adaptive": (9, "b7d661ee23f5f0de26a51afeb624d1e27d69971b8323d85b2e1a541f3aa396ea"),
    "ablation-readonly": (2, "5738fb9b741b9e8e464e8d4e324e11498740914134ab29f7e5f392fb7c9bbcaf"),
    "ablation-client-check": (2, "6246847e3ef5c26f8de633fd0ccd42ff9bdf7eca6828127c16857ad6480fe90f"),
    "channels-scaling": (4, "778a83e99f1305fc5c7a7e284a5aceaced426bead34d97e5268fda3eeca0cbcc"),
    "channels-cross": (4, "73580469ef99d13613fdd04b0332ad70c84a8e2eb3f7776e96aa108b6405b265"),
    "retry-mitigation": (4, "e69537c0a21f9db34d1be039fb4ebb59b5c48210d94ddda956d3770cddd336b6"),
    "retry-storm": (4, "815ad28534f776f44e3ea065c4714be8a282e908455c1a7a47948534941b1a0f"),
    "fault-resilience": (4, "35352f4583d9c91f6210ec31d493b5582cf2624e98a0bb7afff6ff3442ee815a"),
    "fault-retry": (3, "ad862f99656e457929af9072e5e6e877c474b0e1aacbe1f127afe721d5c26eef"),
}


def test_every_experiment_has_a_pinned_grid():
    assert list(QUICK_GRID_DIGESTS) == list(EXPERIMENTS)


@pytest.mark.parametrize("experiment_id", list(QUICK_GRID_DIGESTS))
def test_quick_grid_is_the_pinned_one(experiment_id):
    cells, digest = QUICK_GRID_DIGESTS[experiment_id]
    spec = EXPERIMENTS[experiment_id]
    runner = RecordingRunner()
    if spec.body is None:
        headers = regenerate(experiment_id, QUICK_SCALE, runner=runner).headers
    else:
        headers = spec.headers  # in-process bodies submit no cells
    assert len(runner.cell_hashes) == cells
    payload = json.dumps([list(headers), runner.cell_hashes], separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == digest


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
    report = regenerate("table2", TEST_SCALE)
    assert set(report.column("chaincode")) == {"EHR", "DV", "SCM", "DRM", "genChain"}
    # The EHR addEhr row must report 2 reads and 2 writes as in Table 2.
    row = report.rows_where(chaincode="EHR", function="addEhr")[0]
    assert row[report.headers.index("reads")] == 2
    assert row[report.headers.index("writes")] == 2


def test_figure06_report_structure():
    report = regenerate("fig6", TEST_SCALE)
    assert report.column("block_size") == list(TEST_SCALE.block_sizes)
    assert all(value > 0 for value in report.column("latency_s"))


def test_figure11_covers_both_databases():
    report = regenerate("fig11", TEST_SCALE)
    assert sorted(report.column("database")) == ["couchdb", "leveldb"]


def test_figure13_covers_all_policies():
    report = regenerate("fig13", TEST_SCALE)
    assert report.column("policy") == ["P0", "P1", "P2", "P3"]


def test_figure15_failures_increase_with_skew():
    report = regenerate("fig15", TEST_SCALE, zipf_skew=(0.0, 2.0))
    low = report.value("failures_pct", zipf_skew=0.0)
    high = report.value("failures_pct", zipf_skew=2.0)
    assert high > low


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
