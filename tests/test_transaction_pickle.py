"""Pickle and copy round-trips for the slots chain objects.

A recorded run keeps its transactions, blocks and read/write sets, and a
caller may pickle or copy that record.  ``Transaction``, ``EndorsementResponse``,
``ReadWriteSet``, ``RangeRead`` and ``Block`` are ``__slots__`` classes that
inherit :class:`repro.ledger.rwset.SlotState`: their state is one tuple of
their slots in ``__slots__`` order instead of the default
``{slot name: value}`` dict per object, which protocols 0 and 1 refuse.
These tests pin that every slot survives, at every pickle protocol and
through ``copy``; that sharing and the lazy containers survive the round
trip; and that the state is every slot, in order.
"""

from __future__ import annotations

import copy
import dataclasses
import pickle

import pytest

from repro.ledger.block import (
    Block,
    BlockCutReason,
    EndorsementResponse,
    Transaction,
    ValidationCode,
)
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet, Version

PROTOCOLS = list(range(pickle.HIGHEST_PROTOCOL + 1))


def state_names(cls) -> list:
    """The slots a class's state tuple must carry, in order."""
    if dataclasses.is_dataclass(cls):
        return [item.name for item in dataclasses.fields(cls)]
    return list(cls.__slots__)


def plain(value):
    """``value`` as nested comparables: ``Transaction`` compares by identity."""
    if isinstance(value, (Transaction, Block)):
        names = state_names(type(value))
        return (type(value).__name__, *(plain(getattr(value, name)) for name in names))
    if isinstance(value, list):
        return [plain(item) for item in value]
    return value


# Every field holds a value no other field of its object holds, so a state
# tuple read back in another order than it was written cannot round-trip.
def _range_read() -> RangeRead:
    return RangeRead(
        start_key="patient-0000",
        end_key="patient-0100",
        reads=[KeyRead("patient-0007", Version(2, 0)), KeyRead("patient-0042", None)],
        phantom_detection=False,
        rich_query=True,
        state_token=12,
    )


def _rwset() -> ReadWriteSet:
    return ReadWriteSet(
        reads=[KeyRead("patient-0001", Version(3, 1))],
        writes=[KeyWrite("patient-0001", "record", False), KeyWrite("patient-0009", None, True)],
        range_reads=[_range_read()],
    )


def _endorsement(rwset: ReadWriteSet, received_at=1.3) -> EndorsementResponse:
    return EndorsementResponse(
        peer_name="org1-peer0",
        org_name="org1",
        rwset=rwset,
        completed_at=1.5,
        received_at=received_at,
    )


def _transaction() -> Transaction:
    """An endorsed, committed-as-failed transaction with every slot set."""
    rwset = _rwset()
    return Transaction(
        tx_id="tx-c3-00000042",
        client_name="client-0",
        chaincode_name="ehr",
        function="update_record",
        args=("patient-0001",),
        read_only=True,
        channel=3,
        partner_channel=5,
        attempt=2,
        origin_tx_id="tx-c3-00000040",
        submitted_at=1.25,
        # Both endorsers agree with the transaction: one read/write set, shared.
        endorsements=[_endorsement(rwset), _endorsement(rwset, received_at=None)],
        rwset=rwset,
        endorsement_mismatch=False,
        endorsement_completed_at=1.6,
        prepare_started_at=1.7,
        prepare_completed_at=1.8,
        arrived_at_orderer_at=1.9,
        ordered_at=2.0,
        block_number=7,
        tx_index=4,
        validation_code=ValidationCode.MVCC_READ_CONFLICT,
        committed_at=2.5,
        conflicting_key="patient-0002",
        conflicting_block=6,
        abort_reason="stale read",
        db_call_latency={"GetState": 0.004},
    )


def _pristine_transaction() -> Transaction:
    """A fresh transaction whose lazy containers were never materialized."""
    return Transaction(
        tx_id="tx-00000000",
        client_name="client-1",
        chaincode_name="ehr",
        function="read_record",
        read_only=True,
    )


def _block() -> Block:
    return Block(
        number=7,
        transactions=[_transaction(), _pristine_transaction()],
        cut_reason=BlockCutReason.BLOCK_TIMEOUT,
        created_at=2.0,
        consensus_completed_at=2.5,
        reordered=True,
    )


SAMPLES = {
    "Transaction": _transaction,
    "EndorsementResponse": lambda: _endorsement(_rwset(), received_at=None),
    "ReadWriteSet": _rwset,
    "RangeRead": _range_read,
    "Block": _block,
}


# ------------------------------------------------------------------ the guard
@pytest.mark.parametrize("name", list(SAMPLES))
def test_the_state_tuple_is_every_slot_in_order(name):
    sample = SAMPLES[name]()
    cls = type(sample)
    names = state_names(cls)
    # A dataclass's slots are its fields, nothing else.
    assert list(cls.__slots__) == names
    state = sample.__getstate__()
    assert type(state) is tuple
    # A slot added later without extending the state fails here.
    assert len(state) == len(names)
    assert all(value is getattr(sample, slot) for value, slot in zip(state, names))


# ------------------------------------------------------------- round trips
@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("name", list(SAMPLES))
def test_every_class_round_trips_at_every_protocol(name, protocol):
    sample = SAMPLES[name]()
    clone = pickle.loads(pickle.dumps(sample, protocol))
    assert type(clone) is type(sample)
    assert plain(clone) == plain(sample)


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_range_read_inside_a_read_write_set_round_trips(protocol):
    clone = pickle.loads(pickle.dumps(_rwset(), protocol))
    (range_read,) = clone.range_reads
    assert range_read == _range_read()
    assert range_read.keys == ["patient-0007", "patient-0042"]
    assert range_read.reads[1].version is None
    assert (range_read.phantom_detection, range_read.rich_query) == (False, True)
    # Equality ignores the stamp, so it is checked on its own.
    assert range_read.state_token == 12
    assert clone.read_keys() == {"patient-0001", "patient-0007", "patient-0042"}


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_an_endorsement_without_a_receive_time_round_trips(protocol):
    endorsement = _endorsement(_rwset(), received_at=None)
    clone = pickle.loads(pickle.dumps(endorsement, protocol))
    assert clone == endorsement
    assert clone.received_at is None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_shared_read_write_set_crosses_once(protocol):
    clone = pickle.loads(pickle.dumps(_transaction(), protocol))
    assert clone.endorsements[0].rwset is clone.rwset
    assert clone.endorsements[1].rwset is clone.rwset
    assert clone.endorsements[1].received_at is None


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_lazy_containers_stay_unmaterialized(protocol):
    tx = _pristine_transaction()
    clone = pickle.loads(pickle.dumps(tx, protocol))
    assert clone.tx_id == tx.tx_id
    assert clone.read_only is True
    # The receiving side should not pay a list + dict per transaction either.
    assert clone._endorsements is None
    assert clone._db_call_latency is None
    assert clone.endorsement_count == 0


@pytest.mark.parametrize("protocol", PROTOCOLS)
def test_a_block_keeps_its_transactions_in_order(protocol):
    clone = pickle.loads(pickle.dumps(_block(), protocol))
    assert clone.size == 2
    assert [tx.tx_id for tx in clone.transactions] == ["tx-c3-00000042", "tx-00000000"]
    assert clone.cut_reason is BlockCutReason.BLOCK_TIMEOUT
    assert clone.transactions[0].validation_code is ValidationCode.MVCC_READ_CONFLICT
    assert clone.transactions[1]._endorsements is None


# ---------------------------------------------------------------------- copy
@pytest.mark.parametrize("name", list(SAMPLES))
def test_copy_and_deepcopy_use_the_same_state(name):
    sample = SAMPLES[name]()
    shallow = copy.copy(sample)
    deep = copy.deepcopy(sample)
    assert type(shallow) is type(deep) is type(sample)
    assert plain(shallow) == plain(sample)
    assert plain(deep) == plain(sample)
    names = state_names(type(sample))
    # A shallow copy shares every member, a deep copy none that is mutable.
    assert all(getattr(shallow, slot) is getattr(sample, slot) for slot in names)
    for slot in names:
        if isinstance(getattr(sample, slot), (list, dict, ReadWriteSet, RangeRead)):
            assert getattr(deep, slot) is not getattr(sample, slot), slot


def test_deepcopy_keeps_sharing_and_laziness():
    deep = copy.deepcopy(_transaction())
    assert deep.endorsements[0].rwset is deep.rwset
    pristine = copy.deepcopy(_pristine_transaction())
    assert pristine._endorsements is None and pristine._db_call_latency is None
