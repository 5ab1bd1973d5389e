"""Isolation-checker integration: certify the variant families, change nothing.

Three contracts, all tier-1:

* **Certification** — every variant family of the evaluation (the CouchDB
  database path, the DRM and SCM chaincodes, the four-channel deployment with
  cross-channel 2PC traffic, and FabricSharp's lagged snapshots) produces a
  committed history the checker certifies at the family's claimed isolation
  level.  Fabric's validator is an OCC first-updater-wins design, so every
  family must be serializable; FabricSharp is additionally pinned to certify
  snapshot isolation *specifically* (SI certification must not ride on the
  serializability shortcut alone).
* **Zero perturbation** — enabling the checker changes neither the cell hash
  (CheckerConfig is excluded from the canonical form) nor a single pinned
  golden metric: the goldens stay bit-identical with checking on.
* **Round trip** — the exported ``repro-history/1`` document re-checks to the
  same verdict offline.
"""

from __future__ import annotations

import pytest
from corpus import assert_pinned, golden_config, golden_metrics, load

from repro.bench.harness import ExperimentConfig, run_experiment, run_repetition
from repro.checker.checker import (
    LEVEL_SERIALIZABLE,
    LEVEL_SNAPSHOT_ISOLATION,
    VERDICT_SERIALIZABLE,
    CheckerConfig,
)
from repro.checker.history import check_document, history_document
from repro.errors import ConfigurationError
from repro.network.config import NetworkConfig
from repro.workload.workloads import uniform_workload


def checked(config: ExperimentConfig) -> ExperimentConfig:
    """The same cell with isolation checking switched on."""
    return config.with_overrides(
        network=config.network.copy(checker=CheckerConfig(enabled=True))
    )


# ----------------------------------------------------------------- validation
def test_checker_config_validates_witness_limit():
    with pytest.raises(ConfigurationError):
        CheckerConfig(witness_limit=0).validate()
    CheckerConfig(witness_limit=1).validate()


def test_disabled_checker_reports_nothing():
    analysis = run_repetition(golden_config("fabric-1.4", 1), 0)
    assert analysis.record.isolation is None
    assert analysis.metrics.isolation == {}


# ----------------------------------------------------------- zero perturbation
def test_enabling_the_checker_keeps_the_cell_hash():
    config = golden_config("fabric-1.4", 1)
    assert checked(config).cell_hash() == config.cell_hash()
    pinned = load()["lifecycle/fabric-1.4/channels=1/metrics"]["cell_hash"]
    assert checked(config).cell_hash() == pinned


@pytest.mark.parametrize("variant,channels", [("fabric-1.4", 1), ("fabricsharp", 4)])
def test_golden_metrics_stay_bit_identical_with_checking_enabled(variant, channels):
    # The lifecycle cell with checking on must reproduce its pinned metrics.
    actual = golden_metrics(checked(golden_config(variant, channels)))
    assert_pinned(f"lifecycle/{variant}/channels={channels}", "metrics", actual)


# -------------------------------------------------------------- certification
def family_cells():
    base_network = NetworkConfig(cluster="C1", database="leveldb", block_size=10)
    return [
        pytest.param(
            ExperimentConfig(
                network=base_network.copy(database="couchdb"),
                arrival_rate=120.0,
                duration=3.0,
                seed=7,
            ),
            LEVEL_SERIALIZABLE,
            id="couchdb",
        ),
        pytest.param(
            ExperimentConfig(
                workload=uniform_workload("DRM", artworks=20),
                network=base_network,
                arrival_rate=120.0,
                duration=3.0,
                seed=7,
            ),
            LEVEL_SERIALIZABLE,
            id="drm",
        ),
        pytest.param(
            ExperimentConfig(
                workload=uniform_workload("SCM"),
                network=base_network,
                arrival_rate=120.0,
                duration=3.0,
                seed=7,
            ),
            LEVEL_SERIALIZABLE,
            id="scm",
        ),
        pytest.param(
            ExperimentConfig(
                network=base_network.copy(channels=4, cross_channel_rate=0.1),
                arrival_rate=120.0,
                duration=3.0,
                seed=7,
            ),
            LEVEL_SERIALIZABLE,
            id="multi-channel",
        ),
        pytest.param(
            ExperimentConfig(
                variant="fabricsharp",
                network=base_network,
                arrival_rate=120.0,
                duration=3.0,
                seed=7,
            ),
            LEVEL_SNAPSHOT_ISOLATION,
            id="fabricsharp",
        ),
    ]


@pytest.mark.parametrize("config,level", family_cells())
def test_variant_family_certifies_at_claimed_isolation_level(config, level):
    analysis = run_repetition(checked(config), 0)
    report = analysis.record.isolation
    assert report is not None
    assert report.certifies(level), (
        f"{config.variant} refuted {level}: "
        f"{[witness.as_dict() for channel in report.channels for witness in channel.anomalies]}"
    )
    # Fabric's validator rejects every stale read, so the stronger level must
    # hold everywhere too — and SI certification is monotone below it.
    assert report.verdict == VERDICT_SERIALIZABLE
    assert report.snapshot_isolation
    committed = sum(channel.committed for channel in report.channels)
    assert committed > 0, "an empty history certifies vacuously"
    # The verdict also lands on the metrics surface.
    assert analysis.metrics.isolation["verdict"] == report.verdict


def test_multi_channel_report_carries_one_verdict_per_channel():
    config = ExperimentConfig(
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            channels=4,
            cross_channel_rate=0.1,
        ),
        arrival_rate=120.0,
        duration=3.0,
        seed=7,
    )
    report = run_repetition(checked(config), 0).record.isolation
    assert sorted(channel.channel for channel in report.channels) == [0, 1, 2, 3]
    assert all(channel.committed > 0 for channel in report.channels)


def test_fabricsharp_history_certifies_si_on_its_own_evidence():
    # "Certifies SI" must be a statement about G_SI itself, not only the
    # serializability shortcut: the SI machinery has to have composed edges
    # to reason over on a real lagged-snapshot history.
    config = ExperimentConfig(
        variant="fabricsharp",
        network=NetworkConfig(cluster="C1", database="leveldb", block_size=10),
        arrival_rate=120.0,
        duration=3.0,
        seed=7,
    )
    report = run_repetition(checked(config), 0).record.isolation
    assert report.certifies(LEVEL_SNAPSHOT_ISOLATION)
    channel = report.channels[0]
    assert channel.si_violations == 0
    assert channel.edges.get("wr", 0) + channel.edges.get("rw", 0) > 0


# ------------------------------------------------------------------ round trip
def test_exported_history_rechecks_to_the_same_verdict():
    config = golden_config("fabric-1.4", 1)
    result = run_experiment(checked(config), record_chain=True)
    record = result.analyses[0].record
    document = history_document(record)
    offline = check_document(document)
    assert offline.verdict == record.isolation.verdict
    assert offline.summary()["committed"] == record.isolation.summary()["committed"]
