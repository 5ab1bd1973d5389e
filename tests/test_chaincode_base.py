"""Unit tests for the chaincode base class and registry."""

from __future__ import annotations

import random

import pytest

from repro.chaincode import CHAINCODE_REGISTRY, create_chaincode
from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode, chaincode_function
from repro.errors import ChaincodeError, UnknownFunctionError
from repro.ledger.leveldb import LevelDBStore


class ToyChaincode(Chaincode):
    name = "toy"

    @chaincode_function()
    def write(self, stub, key):
        stub.put_state(key, 1)
        return "written"

    @chaincode_function(read_only=True)
    def read(self, stub, key):
        return stub.get_state(key)

    @chaincode_function()
    def initLedger(self, stub):
        stub.put_state("genesis", 0)
        return "ok"

    def initial_state(self, rng):
        return {"genesis": 0}

    def sample_args(self, function, rng, index_chooser=None):
        return ("genesis",)


def test_functions_are_discovered_and_sorted():
    chaincode = ToyChaincode()
    assert chaincode.functions() == ["initLedger", "read", "write"]
    assert chaincode.invocable_functions() == ["read", "write"]


def test_read_only_flags():
    chaincode = ToyChaincode()
    assert chaincode.is_read_only("read")
    assert not chaincode.is_read_only("write")
    with pytest.raises(UnknownFunctionError):
        chaincode.is_read_only("missing")


def test_invoke_returns_response_with_payload():
    chaincode = ToyChaincode()
    store = LevelDBStore()
    store.populate(chaincode.initial_state(random.Random(0)))
    stub = ChaincodeStub(store)
    response = chaincode.invoke(stub, "read", ("genesis",))
    assert response.read_only
    assert response.payload == 0
    assert response.function == "read"


def test_invoke_unknown_function_raises():
    chaincode = ToyChaincode()
    stub = ChaincodeStub(LevelDBStore())
    with pytest.raises(UnknownFunctionError):
        chaincode.invoke(stub, "nope", ())


def test_an_invalid_key_fails_the_endorsement_naming_chaincode_and_function():
    chaincode = ToyChaincode()
    stub = ChaincodeStub(LevelDBStore())
    with pytest.raises(ChaincodeError, match="'toy' function 'write'.*non-empty strings"):
        chaincode.execute(stub, "write", ("",))
    assert stub.rwset.writes == []


def test_choose_uses_chooser_and_validates_bounds(rng):
    chaincode = ToyChaincode()
    assert chaincode._choose(rng, 10, None) in range(10)
    assert chaincode._choose(rng, 10, lambda n: n - 1) == 9
    with pytest.raises(ChaincodeError):
        chaincode._choose(rng, 10, lambda n: n)
    with pytest.raises(ChaincodeError):
        chaincode._choose(rng, 0, None)


def test_registry_contains_the_paper_chaincodes():
    assert set(CHAINCODE_REGISTRY) == {"EHR", "DV", "SCM", "DRM", "genChain"}


def test_create_chaincode_by_name_and_kwargs():
    chaincode = create_chaincode("EHR", patients=10)
    assert chaincode.name == "EHR"
    assert chaincode.patients == 10


def test_create_chaincode_unknown_name():
    with pytest.raises(KeyError):
        create_chaincode("unknown")
