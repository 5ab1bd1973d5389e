"""Unit tests for genChain and the chaincode generator (paper Section 4.4)."""

from __future__ import annotations

import random

import pytest

from repro.chaincode import create_chaincode
from repro.chaincode.api import ChaincodeStub
from repro.chaincode.genchain import RANGE_WIDTHS, GenChainChaincode
from repro.chaincode.generator import ChaincodeGenerator, FunctionSpec, genchain_generator
from repro.errors import ConfigurationError
from repro.ledger.couchdb import CouchDBStore
from repro.ledger.leveldb import LevelDBStore
from repro.workload.spec import TransactionMix


def make_store(chaincode):
    store = LevelDBStore()
    store.populate(chaincode.initial_state(random.Random(0)))
    return store


# -------------------------------------------------------------------- genChain
def test_genchain_initial_state_size():
    chaincode = GenChainChaincode(num_keys=500)
    assert len(chaincode.initial_state(random.Random(0))) == 500


def test_genchain_rejects_empty_population():
    with pytest.raises(ValueError):
        GenChainChaincode(num_keys=0)


def test_genchain_functions_cover_all_operation_types():
    chaincode = GenChainChaincode(num_keys=100)
    assert set(chaincode.functions()) == {
        "readKey",
        "insertKey",
        "updateKey",
        "deleteKey",
        "rangeRead",
    }
    assert chaincode.is_read_only("readKey")
    assert chaincode.is_read_only("rangeRead")
    assert not chaincode.is_read_only("updateKey")


def test_genchain_insert_args_are_unique(rng):
    chaincode = GenChainChaincode(num_keys=100)
    indexes = [chaincode.sample_args("insertKey", rng)[0] for _ in range(10)]
    assert len(set(indexes)) == 10
    assert all(index >= 100 for index in indexes)


def test_genchain_delete_args_walk_through_existing_keys(rng):
    chaincode = GenChainChaincode(num_keys=50)
    indexes = [chaincode.sample_args("deleteKey", rng)[0] for _ in range(5)]
    assert indexes == [0, 1, 2, 3, 4]


def test_genchain_range_width_follows_paper(rng):
    chaincode = GenChainChaincode(num_keys=1000)
    widths = {chaincode.sample_args("rangeRead", rng)[1] for _ in range(50)}
    assert widths <= set(RANGE_WIDTHS)


def test_genchain_active_keys_restricts_sampling(rng):
    chaincode = GenChainChaincode(num_keys=10_000, active_keys=10)
    indexes = [chaincode.sample_args("readKey", rng)[0] for _ in range(50)]
    assert max(indexes) < 10


def test_genchain_update_reads_and_writes(rng):
    chaincode = GenChainChaincode(num_keys=100)
    store = make_store(chaincode)
    stub = ChaincodeStub(store)
    chaincode.invoke(stub, "updateKey", (5,))
    assert stub.read_count == 1
    assert len(stub.rwset.writes) == 1
    assert stub.rwset.writes[0].value["writes"] == 1


def test_genchain_range_read_returns_requested_keys(rng):
    chaincode = GenChainChaincode(num_keys=100)
    store = make_store(chaincode)
    stub = ChaincodeStub(store)
    result = chaincode.invoke(stub, "rangeRead", (10, 4)).payload
    assert len(result) == 4


# ------------------------------------------------------------------- generator
def test_function_spec_summary_and_read_only():
    spec = FunctionSpec(name="mixed", reads=2, updates=1, range_reads=1)
    assert "2xR" in spec.operation_summary()
    assert not spec.read_only
    assert FunctionSpec(name="lookup", reads=1).read_only


def test_function_spec_validation():
    with pytest.raises(ConfigurationError):
        FunctionSpec(name="bad name", reads=1).validate()
    with pytest.raises(ConfigurationError):
        FunctionSpec(name="neg", reads=-1).validate()
    with pytest.raises(ConfigurationError):
        FunctionSpec(name="range", range_reads=1, range_size=0).validate()


def test_generator_builds_runnable_chaincode(rng):
    generator = ChaincodeGenerator(name="demo", num_keys=200)
    generator.add_function(FunctionSpec(name="lookup", reads=2))
    generator.add_function(FunctionSpec(name="transfer", reads=1, updates=2))
    chaincode = generator.generate()
    store = make_store(chaincode)
    stub = ChaincodeStub(store)
    chaincode.invoke(stub, "transfer", chaincode.sample_args("transfer", rng))
    counts = stub.rwset.merge_counts()
    assert counts["reads"] == 3  # one read plus two read-modify-write updates
    assert counts["writes"] == 2
    assert chaincode.is_read_only("lookup")


def test_generator_rejects_duplicates_and_unknown_database():
    generator = ChaincodeGenerator(name="demo")
    generator.add_function(FunctionSpec(name="a", reads=1))
    with pytest.raises(ConfigurationError):
        generator.add_function(FunctionSpec(name="a", reads=1))
    bad = ChaincodeGenerator(name="demo", database="oracle")
    bad.add_function(FunctionSpec(name="b", reads=1))
    with pytest.raises(ConfigurationError):
        bad.generate()


def test_generator_rich_queries_require_couchdb():
    generator = ChaincodeGenerator(name="demo", database="leveldb")
    with pytest.raises(ConfigurationError):
        generator.add_function(FunctionSpec(name="rich", rich_queries=1))
    couch = ChaincodeGenerator(name="demo", database="couchdb")
    couch.add_function(FunctionSpec(name="rich", rich_queries=1))


def test_generator_requires_at_least_one_function():
    with pytest.raises(ConfigurationError):
        ChaincodeGenerator(name="empty").generate()
    with pytest.raises(ConfigurationError):
        ChaincodeGenerator(name="empty").source_code()


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"functions": ()}, "at least one function"),
        ({"functions": (FunctionSpec("a", reads=1),), "database": "oracle"}, "unknown database"),
        ({"functions": (FunctionSpec("a", reads=1), FunctionSpec("a", reads=2))}, "duplicate"),
        ({"functions": (FunctionSpec("rich", rich_queries=1),)}, "require the CouchDB"),
        ({"functions": (FunctionSpec("bad name", reads=1),)}, "not a valid identifier"),
        ({"functions": (FunctionSpec("neg", reads=-1),)}, "reads must be >= 0"),
    ],
)
def test_the_registered_generated_chaincode_checks_what_the_generator_checks(kwargs, message):
    with pytest.raises(ConfigurationError, match=message):
        create_chaincode("generated", name="demo", **kwargs)


def test_a_generator_workload_names_the_chaincode_it_generates():
    generator = genchain_generator(num_keys=50, database="leveldb")
    workload = generator.workload("gen", TransactionMix.uniform(["readKey", "updateKey"]))
    assert workload.chaincode == "generated"
    assert workload.chaincode_kwargs == {
        "name": "genChain",
        "database": "leveldb",
        "num_keys": 50,
        "functions": tuple(generator.functions),
    }
    built = create_chaincode(workload.chaincode, **workload.chaincode_kwargs)
    assert built.operation_profile() == generator.generate().operation_profile()
    assert built.initial_state(random.Random(0)) == generator.generate().initial_state(
        random.Random(0)
    )


def test_generated_source_code_is_valid_python():
    generator = genchain_generator(num_keys=50, database="couchdb")
    source = generator.source_code()
    compiled = compile(source, "<generated>", "exec")
    namespace = {}
    exec(compiled, namespace)  # noqa: S102 - exercising the generated module
    chaincode_class = namespace["GenchainChaincode"]
    chaincode = chaincode_class()
    assert "readKey" in chaincode.functions()


def test_genchain_generator_matches_section_4_4_mix():
    generator = genchain_generator()
    names = {spec.name for spec in generator.functions}
    assert names == {"readKey", "insertKey", "updateKey", "deleteKey", "rangeRead"}


def test_generated_chaincode_unknown_function_rejected(rng):
    generator = ChaincodeGenerator(name="demo")
    generator.add_function(FunctionSpec(name="only", reads=1))
    chaincode = generator.generate()
    with pytest.raises(ConfigurationError):
        chaincode.sample_args("missing", rng)


def test_emitted_source_does_what_the_runnable_does():
    # The emitted module and the runnable chaincode are two renderings of the
    # same specs: on equal arguments every function must read, write, delete
    # and scan exactly the same keys, and write the same values.
    generator = ChaincodeGenerator(name="every-op", database="couchdb", num_keys=20)
    generator.add_function(FunctionSpec(name="lookup", reads=2))
    generator.add_function(FunctionSpec(name="touch", reads=1, updates=2))
    generator.add_function(FunctionSpec(name="create", inserts=2))
    generator.add_function(FunctionSpec(name="drop", deletes=1))
    generator.add_function(FunctionSpec(name="rr", range_reads=2, range_size=8))
    generator.add_function(FunctionSpec(name="rich", rich_queries=1))
    generator.add_function(
        FunctionSpec(name="mixed", reads=1, inserts=1, updates=1, deletes=1, range_reads=1)
    )
    runnable = generator.generate()
    namespace = {}
    exec(compile(generator.source_code(), "<generated>", "exec"), namespace)  # noqa: S102
    emitted = namespace["EveryOpChaincode"]()
    assert emitted.functions() == runnable.functions()
    for function in runnable.functions():
        assert emitted.is_read_only(function) == runnable.is_read_only(function)
        for args in ((0, 20), (5, 31), (18, 21), (19, 40)):
            stubs = []
            for chaincode in (runnable, emitted):
                store = CouchDBStore()
                store.populate(chaincode.initial_state(random.Random(0)))
                stub = ChaincodeStub(store)
                chaincode.invoke(stub, function, args)
                stubs.append(stub)
            assert stubs[1].rwset == stubs[0].rwset, (function, args)
