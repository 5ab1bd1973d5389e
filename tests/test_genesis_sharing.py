"""One frozen genesis per process: the contract every cell that borrows it relies on.

A chaincode that declares what its initial state is a function of
(:meth:`~repro.chaincode.base.Chaincode.genesis_identity`) has its populated,
frozen base built once per process; every channel of every later cell overlays
that one store (:func:`repro.ledger.factory.genesis_base`).  Pinned here:

* the declaration is true — equal identities mean equal initial states, built
  without drawing — and it is checked where it is relied on;
* a cell computes the same bytes whether it built the base, borrowed it from a
  cell before it, or rebuilt it after a cell of another genesis evicted it;
* no run writes through the base, on any chaincode or variant;
* the process keeps one population, lets the old one go *before* it builds the
  next, and a finished cell's own state still dies by reference count.
"""

from __future__ import annotations

import gc
import hashlib
import random
import weakref
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_collector import build_cell, run_cell
from test_sharded_execution import plan_free, unrecorded

from repro.bench.harness import ExperimentConfig
from repro.chaincode import CHAINCODE_REGISTRY, Chaincode, chaincode_function, create_chaincode
from repro.chaincode.generator import FunctionSpec, genchain_generator
from repro.core.fingerprint import record_fingerprint
from repro.errors import ConfigurationError
from repro.fabric import available_variants
from repro.ledger import factory
from repro.ledger.couchdb import CouchDBStore
from repro.ledger.kvstore import GENESIS_VERSION
from repro.ledger.leveldb import LevelDBStore
from repro.lifecycle.pipeline import build_network
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.sim.rng import RandomStreams
from repro.sim.shard import ExecutionConfig
from repro.workload.spec import TransactionMix, WorkloadSpec
from repro.workload.workloads import uniform_workload

SIZES = st.integers(min_value=1, max_value=25)
GENERATED_SPECS = st.lists(
    st.builds(FunctionSpec, name=st.sampled_from(["read", "write"]), reads=SIZES),
    min_size=1,
    max_size=2,
    unique_by=lambda spec: spec.name,
)

#: Per chaincode: the constructor parameters that reach ``initial_state``, and
#: the ones that do not.
CONSTRUCTORS = {
    "EHR": (st.fixed_dictionaries({"patients": SIZES}), st.fixed_dictionaries({"medical_actors": SIZES})),
    "DV": (st.fixed_dictionaries({"voters": SIZES, "parties": SIZES}), st.just({})),
    "SCM": (
        st.fixed_dictionaries({"units_per_lsp": st.lists(SIZES, min_size=1, max_size=4)}),
        st.just({}),
    ),
    "DRM": (st.fixed_dictionaries({"artworks": SIZES, "right_holders": SIZES}), st.just({})),
    "genChain": (
        st.fixed_dictionaries({"num_keys": SIZES}),
        st.fixed_dictionaries({"active_keys": st.one_of(st.none(), SIZES)}),
    ),
    "generated": (
        st.fixed_dictionaries({"num_keys": SIZES}),
        st.fixed_dictionaries(
            {
                "name": st.sampled_from(["assets", "other"]),
                "functions": GENERATED_SPECS,
                "database": st.sampled_from(["leveldb", "couchdb"]),
            }
        ),
    ),
}


@pytest.fixture(autouse=True)
def fresh_memo():
    """Every test starts, and leaves the suite, without a retained population."""
    factory._shared_genesis.clear()
    yield
    factory._shared_genesis.clear()


# ------------------------------------------------------------- the declaration
def test_every_registered_chaincode_declares_its_genesis():
    assert set(CONSTRUCTORS) == set(CHAINCODE_REGISTRY)
    for name, chaincode_class in CHAINCODE_REGISTRY.items():
        assert "genesis_identity" in vars(chaincode_class), name


@pytest.mark.parametrize("name", list(CONSTRUCTORS))
@settings(max_examples=40, deadline=None)
@given(data=st.data(), seeds=st.tuples(st.integers(0, 2**32), st.integers(0, 2**32)))
def test_equal_identities_mean_equal_initial_states_built_without_a_draw(name, data, seeds):
    reaching, others = CONSTRUCTORS[name]
    genesis, other_genesis = data.draw(reaching), data.draw(reaching)
    build = CHAINCODE_REGISTRY[name]
    one = build(**genesis, **data.draw(others))
    twin = build(**genesis, **data.draw(others))
    other = build(**other_genesis, **data.draw(others))
    rng, twin_rng = random.Random(seeds[0]), random.Random(seeds[1])
    before = rng.getstate(), twin_rng.getstate()
    state = one.initial_state(rng)
    assert one.genesis_identity() is not None
    assert one.genesis_identity() == twin.genesis_identity()
    assert hash(one.genesis_identity()) == hash(twin.genesis_identity())
    assert twin.initial_state(twin_rng) == state
    assert (rng.getstate(), twin_rng.getstate()) == before
    if genesis != other_genesis:
        assert other.genesis_identity() != one.genesis_identity()
    if other.genesis_identity() == one.genesis_identity():
        assert other.initial_state(rng) == state


# ----------------------------------------------- checked where it is relied on
class Drawing(Chaincode):
    """Declares an identity its ``initial_state`` does not honour."""

    name = "drawing"

    def genesis_identity(self):
        return ("drawing",)

    def initial_state(self, rng):
        return {"k0": rng.random()}

    @chaincode_function(read_only=True)
    def read(self, stub):
        return stub.get_state("k0")

    def sample_args(self, function, rng, index_chooser=None):
        return ()


class Undeclared(Drawing):
    """The same chaincode, honest: it shares nothing."""

    def genesis_identity(self):
        return None


def test_a_chaincode_that_declares_an_identity_and_draws_is_refused_by_name(monkeypatch):
    monkeypatch.setitem(CHAINCODE_REGISTRY, "drawing", Drawing)
    with pytest.raises(ConfigurationError, match=r"Drawing declares a genesis_identity\(\) but initial_state draws"):
        build_network(NetworkConfig(cluster="C1", database="leveldb"), "drawing", "fabric-1.4")
    assert not factory._shared_genesis


def test_an_undeclared_chaincode_builds_one_base_per_channel_as_before(monkeypatch):
    assert Chaincode().genesis_identity() is None
    ehr_base = build_cell(_ehr()).channels[0].state_base
    monkeypatch.setitem(CHAINCODE_REGISTRY, "undeclared", Undeclared)
    # Recorded, so the two channels share one clock and are built here and now.
    network = build_network(
        NetworkConfig(cluster="C1", database="leveldb", channels=2),
        "undeclared",
        "fabric-1.4",
        record_chain=True,
    )
    first, second = (channel.state_base for channel in network.channels)
    assert first is not second and first.frozen and second.frozen
    for channel in network.channels:
        # One draw each, from the channel's own ``initial-state`` stream.
        replay = RandomStreams(channel.streams.seed).stream("initial-state")
        assert channel.state_base.get_value("k0") == replay.random()
        assert channel.streams.stream("initial-state").getstate() == replay.getstate()
    # Building it neither used nor evicted the population the process holds.
    assert list(factory._shared_genesis.values()) == [ehr_base]


# --------------------------------------------------- a cell, wherever it lands
def _cell(workload, database="leveldb", **network) -> ExperimentConfig:
    return ExperimentConfig(
        variant="fabric-1.4",
        workload=workload,
        network=NetworkConfig(cluster="C1", block_size=10, database=database, **network),
        arrival_rate=120.0,
        duration=1.5,
        zipf_skew=1.0,
        seed=23,
    )


def _ehr(database="leveldb", **network) -> ExperimentConfig:
    return _cell(uniform_workload("EHR", patients=30), database, **network)


def _genchain(database="couchdb", **network) -> ExperimentConfig:
    return _cell(uniform_workload("genChain", num_keys=300), database, **network)


SHAPES = {
    "one-channel": dict(),
    "4-channel": dict(channels=4, cross_channel_rate=0.3),
    "sharded": dict(channels=4, execution=ExecutionConfig(shard_workers=2)),
}


@pytest.mark.parametrize("shape", list(SHAPES))
def test_a_cell_is_the_same_bytes_first_after_its_own_genesis_and_after_another(shape):
    options = SHAPES[shape]
    ehr, couch, genchain = _ehr(**options), _ehr("couchdb", **options), _genchain(**options)
    sharded = shape == "sharded"

    def computed(config):
        # A sharded run ships its tally, not its chain: its analysis is what it computed.
        if sharded:
            return plan_free(run_cell(config, build_cell(config, record_chain=False)))
        return record_fingerprint(run_cell(config))

    # Built in a process that holds nothing (shard workers are forked from this
    # one, so what it holds is what they start with) ...
    first = run_cell(ehr, build_cell(ehr, record_chain=not sharded))
    assert first.submitted_count > 100
    assert first.execution == ("sharded" if sharded else "shared-clock")
    expected = plan_free(first) if sharded else record_fingerprint(first)
    if sharded:
        # One base per *process*, and the pool's workers drain every shard
        # while this one waits: it built none.
        assert len(factory._shared_genesis) == 0
        # The same four channels on one shared clock: a recorded run.
        assert unrecorded(run_cell(_ehr(channels=4))) == expected
    # ... borrowed from a cell of the same genesis ...
    held = build_cell(_ehr()).channels[0].state_base
    assert computed(ehr) == expected
    assert list(factory._shared_genesis.values()) == [held]
    # ... and rebuilt after a cell of another genesis, on the other database.
    other = computed(genchain)
    build_cell(_genchain())
    assert list(factory._shared_genesis.values()) != [held]
    assert computed(ehr) == expected
    # The database is part of what is shared: same chaincode, another store.
    on_couch = computed(couch)
    assert on_couch != expected
    assert computed(ehr) == expected
    assert computed(couch) == on_couch
    assert computed(genchain) == other


def test_every_channel_of_a_deployment_overlays_the_same_base_of_its_database():
    for database, store_class in (("leveldb", LevelDBStore), ("couchdb", CouchDBStore)):
        network = build_cell(_ehr(database, channels=4, cross_channel_rate=0.3))
        bases = {id(channel.state_base) for channel in network.channels}
        assert len(bases) == 1
        base = network.channels[0].state_base
        assert type(base) is store_class and base.frozen
        assert list(factory._shared_genesis.values()) == [base]
        assert all(channel.validator.store.base is base for channel in network.channels)
        # Only the channel that found the memo empty made an ``initial-state`` stream.
        assert [
            channel.index
            for channel in network.channels
            if "initial-state" in channel.streams._streams
        ] == [0]
        assert build_cell(_ehr(database)).channels[0].state_base is base


# -------------------------------------------------------- nobody writes to it
def content_hash(base) -> str:
    """Canonical digest of a store's whole content."""
    rows = sorted((key, repr(entry.value), entry.version) for key, entry in base.items())
    return hashlib.sha256(repr(rows).encode("utf-8")).hexdigest()


def _generated_workload() -> WorkloadSpec:
    names = ["readKey", "insertKey", "updateKey", "deleteKey", "rangeRead"]
    generator = genchain_generator(num_keys=120, database="leveldb")
    return generator.workload("generated", TransactionMix.uniform(names))


WORKLOADS = {
    "EHR": uniform_workload("EHR", patients=20),
    "DV": uniform_workload("DV", voters=40, parties=4),
    "SCM": uniform_workload("SCM", units_per_lsp=[12, 12, 20]),
    "DRM": uniform_workload("DRM", artworks=20, right_holders=20),
    "genChain": uniform_workload("genChain", num_keys=120),
    "generated": _generated_workload(),
}


#: FabricSharp refuses range queries (paper Section 5.4): its cells leave these
#: functions out, and DV — whose every function scans — is not run on it.
RANGE_FUNCTIONS = {"queryASN", "queryStock", "calcRevenue", "rangeRead"}
CELLS = [
    (name, variant)
    for name in WORKLOADS
    for variant in available_variants()
    if (name, variant) != ("DV", "fabricsharp")
]


@pytest.mark.parametrize("name, variant", CELLS)
def test_a_run_leaves_the_shared_base_the_genesis_it_was_built_as(name, variant):
    # Range reads, deletes (genChain, generated, SCM), rich-query fallbacks and
    # retries included: chaincode functions copy before they change, and
    # nothing may reach a value of the base and write through it.
    workload = WORKLOADS[name]
    if variant == "fabricsharp":
        kept = [function for function, _ in workload.mix.weights if function not in RANGE_FUNCTIONS]
        workload = replace(workload, mix=TransactionMix.uniform(kept))
    config = _cell(workload, retry=RetryConfig(policy="jittered", max_retries=2))
    config.variant = variant
    network = build_cell(config)
    base = network.channels[0].state_base
    assert list(factory._shared_genesis.values()) == [base]
    chaincode = create_chaincode(workload.chaincode, **workload.chaincode_kwargs)
    genesis = chaincode.initial_state(random.Random(0))
    assert {key: entry.value for key, entry in base.items()} == genesis
    assert all(entry.version == GENESIS_VERSION for _, entry in base.items())
    built = content_hash(base)
    record = run_cell(config, network)
    assert len(record.transactions) > 100 and record.ledger.blocks
    writes = sum(len(tx.rwset.writes) for block in record.ledger.blocks for tx in block.transactions)
    assert writes > 20 and network.channels[0].validator.store.delta_size > 0
    assert content_hash(base) == built
    assert base.commit_epoch == 0 and list(factory._shared_genesis.values()) == [base]


# ------------------------------------------- one population, and what still dies
def test_the_replaced_base_dies_before_the_next_is_built_with_the_collector_off(monkeypatch):
    seen = []
    genchain_class = CHAINCODE_REGISTRY["genChain"]
    initial_state = genchain_class.initial_state

    def building(self, rng):
        # What module state reaches while the next population is being built.
        seen.append((ehr_base(), len(factory._shared_genesis)))
        return initial_state(self, rng)

    monkeypatch.setattr(genchain_class, "initial_state", building)
    gc.disable()
    try:
        network = build_cell(_ehr())
        ehr_base = weakref.ref(network.channels[0].state_base)
        overlay = weakref.ref(network.channels[0].validator.store)
        del network
        # The cell's own state is gone; the base is kept for the next cell.
        assert overlay() is None and ehr_base() is not None
        assert list(factory._shared_genesis.values()) == [ehr_base()]
        network = build_cell(_genchain(channels=2))
        assert seen == [(None, 0)]  # one build for two channels, after the eviction
        genchain_base = weakref.ref(network.channels[0].state_base)
        assert list(factory._shared_genesis.values()) == [genchain_base()]
        del network
        assert build_cell(_ehr()).channels[0].state_base is not None
        assert genchain_base() is None and len(factory._shared_genesis) == 1
    finally:
        gc.enable()
