"""Unit tests for peers, the ordering service and client nodes."""

from __future__ import annotations

import random

import pytest

from repro.chaincode.genchain import GenChainChaincode
from repro.errors import SimulationError
from repro.fabric.base import Fabric14
from repro.fabric.streamchain import Streamchain
from repro.ledger.block import BlockCutReason, Transaction, ValidationCode
from repro.ledger.kvstore import GENESIS_VERSION, Version
from repro.ledger.ledger import Ledger
from repro.ledger.leveldb import LevelDBStore
from repro.ledger.rwset import KeyRead, KeyWrite, ReadWriteSet
from repro.ledger.store import WriteBatch
from repro.network.config import NetworkConfig
from repro.network.latency import LatencyModel
from repro.network.orderer import OrderingService
from repro.network.peer import LaggedStateView, Peer
from repro.network.validator import BlockValidator


def tiny_config(**overrides) -> NetworkConfig:
    defaults = dict(cluster="C1", clients=1, block_size=3, database="leveldb")
    defaults.update(overrides)
    return NetworkConfig(**defaults)


def build_peer(sim, config, variant, endorser=True, chaincode=None):
    chaincode = chaincode or GenChainChaincode(num_keys=50)
    store = LevelDBStore()
    store.populate(chaincode.initial_state(random.Random(0)))
    peer = Peer(
        sim=sim,
        name="peer0.org0",
        org_index=0,
        config=config,
        variant=variant,
        rng=random.Random(1),
        store=store if endorser else None,
        is_endorser=endorser,
    )
    return peer, chaincode


def configured_variant(variant, config):
    variant.configure(config)
    return variant


def make_tx(function="readKey", args=(1,), reads=(), writes=()):
    tx = Transaction(
        tx_id=f"tx-{random.random()}", client_name="c0", chaincode_name="genChain", function=function, args=args
    )
    if reads or writes:
        tx.rwset = ReadWriteSet(reads=list(reads), writes=list(writes))
    return tx


# --------------------------------------------------------------------------- Peer
def test_peer_endorsement_produces_response_with_rwset(sim):
    config = tiny_config()
    variant = configured_variant(Fabric14(), config)
    peer, chaincode = build_peer(sim, config, variant)
    tx = make_tx(function="updateKey", args=(3,))
    responses = []
    peer.receive_proposal(tx, chaincode, lambda p, r: responses.append((p, r)))
    sim.run_until_empty()
    assert len(responses) == 1
    _peer, response = responses[0]
    assert response.peer_name == "peer0.org0"
    assert response.rwset.read_keys() == {GenChainChaincode.key(3)}
    assert response.completed_at > 0
    assert tx.db_call_latency


def test_non_endorser_rejects_proposals(sim):
    config = tiny_config()
    variant = configured_variant(Fabric14(), config)
    peer, chaincode = build_peer(sim, config, variant, endorser=False)
    with pytest.raises(SimulationError):
        peer.receive_proposal(make_tx(), chaincode, lambda p, r: None)


def test_peer_commit_applies_only_valid_writes(sim):
    config = tiny_config()
    variant = configured_variant(Fabric14(), config)
    peer, chaincode = build_peer(sim, config, variant)
    # The batch the ordering service hands every peer: the canonical
    # validator's, over the same genesis as the peer's replica.
    canonical = LevelDBStore()
    canonical.populate(chaincode.initial_state(random.Random(0)))
    validator = BlockValidator(canonical)
    valid = make_tx(
        reads=[KeyRead("gk00000001", GENESIS_VERSION)],
        writes=[KeyWrite("gk00000001", {"value": 99})],
    )
    # A read of a version the key never had: an MVCC read conflict.
    invalid = make_tx(
        reads=[KeyRead("gk00000002", Version(7, 0))],
        writes=[KeyWrite("gk00000002", {"value": 77})],
    )
    from repro.ledger.block import Block

    block = Block(number=1, transactions=[valid, invalid])
    batch = validator.validate_block(block)
    assert valid.validation_code is ValidationCode.VALID
    assert invalid.validation_code is ValidationCode.MVCC_READ_CONFLICT
    commits = []
    base_time = variant.validation_service_time(block, config)
    peer.deliver_block(block, lambda p, b: commits.append(b), base_time, batch)
    sim.run_until_empty()
    assert commits == [block]
    assert peer.store.get_value("gk00000001") == {"value": 99}
    # The invalid transaction's write must not be applied: key 2 keeps its
    # initial genChain document.
    assert peer.store.get_value("gk00000002") == {"value": 2, "writes": 0}
    assert peer.store.get_version("gk00000001") == Version(1, 0)
    assert peer.committed_height == 1


def test_lagged_view_serves_pre_images_until_visible(sim):
    base = LevelDBStore()
    base.populate({"a": 1})
    view = LaggedStateView(base, sim)
    batch = WriteBatch(block_number=1)
    batch.put("a", 2, Version(1, 0))
    base.apply_batch(batch)
    view.refresh(visible_after=5.0)
    # The pre-commit epoch stays visible until the refresh delay elapses.
    assert view.get_value("a") == 1
    assert view.get_version("a") == GENESIS_VERSION
    sim.schedule(6.0, lambda: None)
    sim.run_until_empty()
    assert view.get_value("a") == 2
    assert view.latency is base.latency


def test_lagged_view_range_merges_pre_images(sim):
    base = LevelDBStore()
    base.populate({"a": 1, "b": 2})
    view = LaggedStateView(base, sim)
    batch = WriteBatch(block_number=1)
    batch.put("c", 3, Version(1, 0))
    batch.delete("b")
    base.apply_batch(batch)
    view.refresh(visible_after=10.0)
    # Inserted key "c" is hidden, deleted key "b" still served, until visible.
    keys = [key for key, _entry in view.range("a", "z")]
    assert keys == ["a", "b"]
    sim.schedule(11.0, lambda: None)
    sim.run_until_empty()
    keys = [key for key, _entry in view.range("a", "z")]
    assert keys == ["a", "c"]


# ------------------------------------------------------------------ OrderingService
def build_orderer(sim, config, variant, peers):
    ledger = Ledger()
    store = LevelDBStore()
    store.populate(GenChainChaincode(num_keys=50).initial_state(random.Random(0)))
    validator = BlockValidator(store)
    orderer = OrderingService(
        sim=sim,
        config=config,
        variant=variant,
        peers=peers,
        validator=validator,
        ledger=ledger,
        latency=LatencyModel(config, random.Random(2)),
        rng=random.Random(3),
    )
    return orderer, ledger


def endorsed_tx(key="gk00000001", version=GENESIS_VERSION):
    tx = make_tx(
        function="updateKey",
        reads=[KeyRead(key, version)],
        writes=[KeyWrite(key, {"value": 1})],
    )
    return tx


def test_block_cut_by_size(sim):
    config = tiny_config(block_size=2)
    variant = configured_variant(Fabric14(), config)
    peer, _ = build_peer(sim, config, variant)
    orderer, ledger = build_orderer(sim, config, variant, [peer])
    orderer.submit(endorsed_tx("gk00000001"))
    orderer.submit(endorsed_tx("gk00000002"))
    sim.run_until_empty()
    assert ledger.height == 1
    assert ledger.block(1).cut_reason is BlockCutReason.BLOCK_SIZE
    assert ledger.block(1).size == 2
    assert orderer.blocks_cut == 1


def test_block_cut_by_timeout(sim):
    config = tiny_config(block_size=100, block_timeout=0.5)
    variant = configured_variant(Fabric14(), config)
    peer, _ = build_peer(sim, config, variant)
    orderer, ledger = build_orderer(sim, config, variant, [peer])
    orderer.submit(endorsed_tx())
    sim.run_until_empty()
    assert ledger.height == 1
    assert ledger.block(1).cut_reason is BlockCutReason.BLOCK_TIMEOUT
    assert sim.now >= 0.5


def test_block_cut_by_max_bytes(sim):
    config = tiny_config(block_size=1000, block_max_bytes=1024)
    variant = configured_variant(Fabric14(), config)
    peer, _ = build_peer(sim, config, variant)
    orderer, ledger = build_orderer(sim, config, variant, [peer])
    orderer.submit(endorsed_tx("gk00000001"))
    orderer.submit(endorsed_tx("gk00000002"))
    sim.run_until_empty()
    assert ledger.height >= 1
    assert ledger.block(1).cut_reason is BlockCutReason.MAX_BYTES


def test_flush_cuts_partial_block(sim):
    config = tiny_config(block_size=100, block_timeout=50.0)
    variant = configured_variant(Fabric14(), config)
    peer, _ = build_peer(sim, config, variant)
    orderer, ledger = build_orderer(sim, config, variant, [peer])
    orderer.submit(endorsed_tx())
    orderer.flush()
    sim.run_until_empty()
    assert ledger.height == 1
    assert ledger.block(1).cut_reason is BlockCutReason.FLUSH


def test_commit_sets_reference_timestamps(sim):
    config = tiny_config(block_size=1)
    variant = configured_variant(Fabric14(), config)
    peer, _ = build_peer(sim, config, variant)
    orderer, ledger = build_orderer(sim, config, variant, [peer])
    tx = endorsed_tx()
    orderer.submit(tx)
    sim.run_until_empty()
    assert tx.committed_at is not None
    assert tx.ordered_at is not None
    assert tx.validation_code is ValidationCode.VALID
    assert tx.block_number == 1


def test_streaming_variant_creates_single_transaction_blocks(sim):
    config = tiny_config(block_size=50)
    variant = Streamchain()
    config = variant.configure(config)
    assert config.block_size == 1
    peer, _ = build_peer(sim, config, variant)
    orderer, ledger = build_orderer(sim, config, variant, [peer])
    for index in range(3):
        orderer.submit(endorsed_tx(f"gk0000000{index + 1}"))
    sim.run_until_empty()
    assert ledger.height == 3
    assert all(block.size == 1 for block in ledger)
    assert all(block.cut_reason is BlockCutReason.STREAMING for block in ledger)


def test_blocks_are_numbered_consecutively(sim):
    config = tiny_config(block_size=1)
    variant = configured_variant(Fabric14(), config)
    peer, _ = build_peer(sim, config, variant)
    orderer, ledger = build_orderer(sim, config, variant, [peer])
    for index in range(4):
        orderer.submit(endorsed_tx(f"gk0000000{index + 1}"))
    sim.run_until_empty()
    assert [block.number for block in ledger] == [1, 2, 3, 4]
