"""Unit/integration tests for the wired single-channel deployment and client nodes."""

from __future__ import annotations

import pytest

from repro.chaincode import create_chaincode
from repro.errors import ConfigurationError
from repro.ledger.couchdb import CouchDBStore
from repro.ledger.factory import make_state_store
from repro.ledger.leveldb import LevelDBStore
from repro.lifecycle import pipeline
from repro.network.config import NetworkConfig
from repro.workload.workloads import uniform_workload


def build_network(seed=5, **overrides):
    """The one-channel deployment; its Fabric slice is ``network.channels[0]``."""
    config = NetworkConfig(
        cluster="C1", clients=2, block_size=10, database="leveldb", **overrides
    )
    return pipeline.build_network(
        config, lambda: create_chaincode("EHR", patients=30), "fabric-1.4", seed=seed
    )


def test_make_state_store_dispatch():
    assert isinstance(make_state_store("leveldb"), LevelDBStore)
    assert isinstance(make_state_store("couchdb"), CouchDBStore)


def test_topology_matches_configuration():
    (network,) = build_network().channels
    assert len(network.organizations) == 2
    assert len(network.peers) == 4
    endorsers = [peer for peer in network.peers if peer.is_endorser]
    assert len(endorsers) == 2
    assert all(peer.store is not None for peer in endorsers)
    committers = [peer for peer in network.peers if not peer.is_endorser]
    assert all(peer.store is None for peer in committers)


def test_endorser_stores_are_populated_with_initial_state():
    (network,) = build_network().channels
    endorser = next(peer for peer in network.peers if peer.is_endorser)
    assert len(endorser.store) == 60  # 30 profiles + 30 records
    assert len(network.validator.store) == 60


def test_peer_states_are_overlays_over_one_shared_frozen_base():
    from repro.ledger.store import OverlayStateStore

    (network,) = build_network().channels
    assert network.state_base.frozen
    assert isinstance(network.validator.store, OverlayStateStore)
    assert network.validator.store.base is network.state_base
    endorsers = [peer for peer in network.peers if peer.is_endorser]
    for peer in endorsers:
        assert isinstance(peer.store, OverlayStateStore)
        assert peer.store.base is network.state_base
        assert peer.store is not network.validator.store
    # Before any block commits, no replica has diverged from the base.
    assert all(peer.store.delta_size == 0 for peer in endorsers)


def test_peer_overlays_only_store_their_divergence_after_a_run():
    deployment = build_network()
    spec = uniform_workload("EHR")
    deployment.run(spec.mix, arrival_rate=40, duration=2.0)
    (network,) = deployment.channels
    base_size = len(network.state_base)
    for peer in network.peers:
        if peer.store is None:
            continue
        # The delta holds only written keys, a small fraction of the state.
        assert peer.store.delta_size < base_size
        assert peer.store.commit_epoch == peer.blocks_committed


def test_run_produces_record_with_transactions():
    network = build_network()
    spec = uniform_workload("EHR")
    record = network.run(spec.mix, arrival_rate=40, duration=2.0, workload_name=spec.name)
    assert record.submitted_count > 20
    assert record.ledger.height >= 1
    assert record.variant_name == "Fabric 1.4"
    assert record.chaincode_name == "EHR"
    assert record.simulated_end >= 2.0
    assert 0 <= record.orderer_utilization <= 1
    assert record.blocks_cut == record.ledger.height


def test_run_rejects_invalid_load_parameters():
    network = build_network()
    spec = uniform_workload("EHR")
    with pytest.raises(ConfigurationError):
        network.run(spec.mix, arrival_rate=0, duration=1.0)
    with pytest.raises(ConfigurationError):
        network.run(spec.mix, arrival_rate=10, duration=0)


def test_same_seed_reproduces_identical_results():
    results = []
    for _ in range(2):
        network = build_network()
        spec = uniform_workload("EHR")
        record = network.run(spec.mix, arrival_rate=40, duration=2.0)
        results.append(
            (
                record.submitted_count,
                record.ledger.transaction_count,
                len(record.ledger.failed_transactions()),
            )
        )
    assert results[0] == results[1]


def test_different_seeds_change_the_run():
    spec = uniform_workload("EHR")
    counts = set()
    for seed in (1, 2, 3):
        record = build_network(seed=seed).run(spec.mix, arrival_rate=40, duration=2.0)
        counts.add(record.submitted_count)
    assert len(counts) > 1


def test_every_submitted_transaction_is_accounted_for():
    network = build_network()
    spec = uniform_workload("EHR")
    record = network.run(spec.mix, arrival_rate=50, duration=2.0)
    on_ledger = record.ledger.transaction_count
    early = len(record.early_aborted)
    skipped = len(record.read_only_skipped)
    assert on_ledger + early + skipped == record.submitted_count


def test_all_ledger_transactions_have_validation_codes_and_timestamps():
    network = build_network()
    spec = uniform_workload("EHR")
    record = network.run(spec.mix, arrival_rate=50, duration=2.0)
    for tx in record.ledger.transactions():
        assert tx.validation_code is not None
        assert tx.committed_at is not None
        assert tx.total_latency is not None and tx.total_latency > 0
        assert tx.block_number is not None


def test_read_only_skip_mode_keeps_queries_off_the_ledger():
    network = build_network(submit_read_only=False)
    spec = uniform_workload("EHR")
    record = network.run(spec.mix, arrival_rate=50, duration=2.0)
    assert record.read_only_skipped
    assert all(tx.read_only for tx in record.read_only_skipped)
    assert all(not tx.read_only or tx in [] for tx in record.ledger.transactions()) or all(
        not tx.read_only for tx in record.ledger.transactions()
    )


def test_peer_states_converge_to_canonical_state_after_run():
    deployment = build_network()
    spec = uniform_workload("EHR")
    deployment.run(spec.mix, arrival_rate=50, duration=2.0)
    (network,) = deployment.channels
    canonical = network.validator.store
    for peer in network.peers:
        if peer.store is None:
            continue
        assert len(peer.store) == len(canonical)
        for key, entry in canonical.items():
            peer_entry = peer.store.get(key)
            assert peer_entry is not None
            assert peer_entry.version == entry.version


def test_client_side_check_drops_mismatches_before_ordering():
    network = build_network(client_side_check=True)
    spec = uniform_workload("EHR")
    record = network.run(spec.mix, arrival_rate=60, duration=2.0)
    # Any early aborted transaction in this mode must be an endorsement mismatch.
    for tx in record.early_aborted:
        assert tx.endorsement_mismatch
