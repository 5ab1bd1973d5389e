"""The single-channel bytes, pinned across the move to one deployment class.

Every digest below was captured at the commit *before* the stand-alone
single-channel deployment was deleted, by running the cell through that
class's own ``run``.  They are asserted here through
:func:`~repro.lifecycle.pipeline.build_network`, i.e. through the one
deployment (:class:`~repro.channels.network.MultiChannelNetwork`) on its
one-channel plan: transaction ids, stream families, the un-stamped
``tx.channel``, the ``RunRecord.ledger`` shape, trace and metrics exports
must all be what they were.
"""

from __future__ import annotations

import hashlib

import pytest
from export_parts import assert_export_pinned, exported_bytes
from test_network_validator import spy_on_paths

from repro.bench.harness import ExperimentConfig
from repro.checker.config import CheckerConfig
from repro.checker.history import history_document
from repro.core.fingerprint import record_fingerprint
from repro.faults.spec import FaultConfig
from repro.lifecycle import events
from repro.lifecycle.pipeline import build_network
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.observability.export import dumps
from repro.sim.shard import ExecutionConfig
from repro.workload.distributions import make_distribution
from repro.workload.workloads import synthetic_workload, uniform_workload


def _cell(variant, workload, cluster, arrival_rate, seed, **network) -> ExperimentConfig:
    return ExperimentConfig(
        variant=variant,
        workload=workload,
        network=NetworkConfig(cluster=cluster, database="leveldb", block_size=10, **network),
        arrival_rate=arrival_rate,
        duration=3.0,
        zipf_skew=1.0,
        seed=seed,
    )


def _chaos_cell() -> ExperimentConfig:
    return _cell(
        "fabric-1.4",
        uniform_workload("EHR", patients=60),
        "C2",
        arrival_rate=220.0,
        seed=19,
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
    )


#: name -> (cell, submitted attempts, SHA-256 of the canonical fingerprint JSON)
CELLS = {
    "fabric-1.4/EHR/C1": (
        _cell("fabric-1.4", uniform_workload("EHR", patients=40), "C1", 160.0, 7),
        514,
        "b86ac9a5986e73ba134f290932a06ef3715f6df3383e32cddc13f4dda54d7b48",
    ),
    "fabric++/SCM/C2": (
        _cell("fabric++", uniform_workload("SCM"), "C2", 120.0, 11),
        372,
        "51e09a746b44aa0efd3778b701f4cf4bc44be362d53b3897d7f5e5af43cc0cb5",
    ),
    "fabricsharp/UH": (
        _cell("fabricsharp", synthetic_workload("UH", include_range=False), "C1", 140.0, 13),
        424,
        "9de1e5ac7b7b03fe6dd1cb34144dedf25baa285235729dd489e6cd0f1accf6fa",
    ),
    "streamchain/DRM": (
        _cell("streamchain", uniform_workload("DRM"), "C1", 80.0, 17),
        246,
        "e5bfa261e83c8cff5b964b17bf1761478e8eb8af4ca214a51b99ef11661e6a54",
    ),
    "DV/no-read-only+client-check": (
        _cell(
            "fabric-1.4",
            uniform_workload("DV"),
            "C1",
            110.0,
            23,
            submit_read_only=False,
            client_side_check=True,
        ),
        347,
        "6b4bc7693a12aea1cd8b1dd5c29c285af07276adef35bcea459dbba30e95836a",
    ),
    "chaos/C2": (
        _chaos_cell(),
        845,
        "91860e3c508d65a7a8b7bf84e42ed6f0ae23c11c116e910c21498cb2d6d71c8a",
    ),
}

#: The chaos cell's trace and metrics exports are pinned part by part in
#: ``tests/golden/export_pins.json`` (see ``export_parts``), under these names.
CHAOS_EXPORT_PIN = "single-channel/chaos-C2"
CHAOS_HISTORY_SHA256 = "867e93239050c1c338dcaf77ac753874136ec5269406a8f1e9b4e10d12164227"


def build(config: ExperimentConfig):
    return build_network(
        config=config.network,
        chaincode_factory=config.build_chaincode,
        variant_factory=config.variant,
        seed=config.seed,
    )


def run(network, config: ExperimentConfig):
    return network.run(
        mix=config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=make_distribution(config.zipf_skew),
        workload_name=config.workload.name,
    )


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("name", list(CELLS))
def test_single_channel_cell_keeps_the_pinned_fingerprint(name):
    config, attempts, fingerprint_sha256 = CELLS[name]
    record = run(build(config), config)
    assert len(record.transactions) == attempts
    assert sha256(dumps(record_fingerprint(record))) == fingerprint_sha256
    # The merge of a one-channel deployment *is* its channel's record.
    assert record.channel_records == []
    assert record.ledger.height > 0
    assert record.execution == "shared-clock" and record.shard_count == 1
    assert all(tx.channel is None for tx in record.transactions)
    assert record.transactions[0].tx_id == "tx-00000000"


#: name -> (phantom-checked range reads decided from the keys written since
#: their state, range reads re-scanned) when the cell runs.
PHANTOM_PATHS = {
    "fabric++/SCM/C2": (72, 0),
    "DV/no-read-only+client-check": (111, 0),
}


@pytest.mark.parametrize("name", list(PHANTOM_PATHS))
def test_phantom_checks_are_decided_from_the_keys_written(name, monkeypatch):
    calls = spy_on_paths(monkeypatch)
    config, _attempts, fingerprint_sha256 = CELLS[name]
    record = run(build(config), config)
    assert (calls["probe"], calls["rescan"]) == PHANTOM_PATHS[name]
    assert sha256(dumps(record_fingerprint(record))) == fingerprint_sha256


def test_chaos_cell_exports_the_pinned_bytes(tmp_path):
    config = CELLS["chaos/C2"][0]
    record = run(build(config), config)
    assert record.fault_injections and record.resubmissions > 0
    assert record.retry_rate_denied > 0
    assert record.isolation.verdict == "CERTIFIED-SERIALIZABLE"
    for kind, exported in exported_bytes(record.observability, tmp_path).items():
        assert_export_pinned(f"{CHAOS_EXPORT_PIN}/{kind}", exported)
    assert sha256(dumps(history_document(record))) == CHAOS_HISTORY_SHA256


def test_transaction_ids_are_a_function_of_the_run_not_of_process_history():
    config = CELLS["fabric-1.4/EHR/C1"][0]
    first = record_fingerprint(run(build(config), config))
    second = record_fingerprint(run(build(config), config))
    assert first == second


@pytest.mark.parametrize("shard_workers", [0, 1, 2])
def test_one_channel_deployment_is_the_one_group_shared_clock_plan(shard_workers):
    config = CELLS["fabric-1.4/EHR/C1"][0]
    config = config.with_overrides(
        network=config.network.copy(execution=ExecutionConfig(shard_workers=shard_workers))
    )
    deployment = build(config)
    assert deployment.execution_mode == "shared-clock"
    assert deployment.coordinator is None
    (channel,) = deployment.channels
    assert deployment.sim is channel.sim


def count_lifecycle_events(monkeypatch) -> list:
    """Count every :class:`LifecycleEvent` the buses build from here on."""
    allocated = []

    class CountedEvent(events.LifecycleEvent):
        def __init__(self, *args, **kwargs):
            allocated.append(1)
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(events, "LifecycleEvent", CountedEvent)
    return allocated


def test_unobserved_one_channel_run_allocates_no_lifecycle_event(monkeypatch):
    # The one channel publishes on its own bus, which nobody listens to.
    allocated = count_lifecycle_events(monkeypatch)
    config = CELLS["fabric-1.4/EHR/C1"][0]
    record = run(build(config), config)
    assert record.lifecycle_counts["committed"] > 0
    assert allocated == []


def test_unobserved_eight_channel_run_allocates_no_lifecycle_event(monkeypatch):
    # Eight channel buses, one per chain: every emission is counted on its
    # channel's bus and builds no event while nobody listens.
    allocated = count_lifecycle_events(monkeypatch)
    config = CELLS["fabric-1.4/EHR/C1"][0]
    config = config.with_overrides(network=config.network.copy(channels=8))
    record = run(build(config), config)
    assert record.lifecycle_counts["committed"] > 0
    assert allocated == []
    for name, count in record.lifecycle_counts.items():
        assert count == sum(
            channel.record.lifecycle_counts.get(name, 0) for channel in record.channel_records
        )
