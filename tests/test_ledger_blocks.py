"""Unit tests for transactions, blocks and the append-only ledger."""

from __future__ import annotations

import pytest

from repro.errors import LedgerError
from repro.ledger.block import (
    Block,
    BlockCutReason,
    Transaction,
    TransactionIdAllocator,
    ValidationCode,
)
from repro.ledger.ledger import Ledger
from repro.ledger.rwset import KeyRead, KeyWrite, ReadWriteSet


_test_ids = TransactionIdAllocator("test")


def make_tx(tx_id=None, code=None, reads=1, writes=1):
    tx = Transaction(
        tx_id=tx_id or _test_ids(),
        client_name="client0",
        chaincode_name="EHR",
        function="addEhr",
    )
    tx.rwset = ReadWriteSet(
        reads=[KeyRead(f"k{i}", None) for i in range(reads)],
        writes=[KeyWrite(f"k{i}", i) for i in range(writes)],
    )
    tx.validation_code = code
    return tx


def test_transaction_ids_are_unique_and_increasing():
    ids = TransactionIdAllocator()
    first = ids()
    second = ids()
    assert first != second
    assert first < second


def test_validation_codes_failure_flag():
    assert not ValidationCode.VALID.is_failure
    for code in ValidationCode:
        if code is not ValidationCode.VALID:
            assert code.is_failure


def test_transaction_status_properties():
    committed = make_tx(code=ValidationCode.VALID)
    failed = make_tx(code=ValidationCode.MVCC_READ_CONFLICT)
    pending = make_tx(code=None)
    assert committed.is_committed and not committed.is_failed
    assert failed.is_failed and not failed.is_committed
    assert not pending.is_committed and not pending.is_failed


def test_total_latency_requires_commit_timestamp():
    tx = make_tx()
    tx.submitted_at = 1.0
    assert tx.total_latency is None
    tx.committed_at = 3.5
    assert tx.total_latency == pytest.approx(2.5)


def test_estimated_size_grows_with_rwset():
    small = make_tx(reads=1, writes=1)
    large = make_tx(reads=10, writes=10)
    empty = Transaction(tx_id="t", client_name="c", chaincode_name="EHR", function="f")
    assert large.estimated_size_bytes() > small.estimated_size_bytes()
    assert empty.estimated_size_bytes() > 0


def test_block_partitions_valid_and_failed_transactions():
    block = Block(
        number=1,
        transactions=[
            make_tx(code=ValidationCode.VALID),
            make_tx(code=ValidationCode.ENDORSEMENT_POLICY_FAILURE),
            make_tx(code=ValidationCode.VALID),
        ],
        cut_reason=BlockCutReason.BLOCK_SIZE,
    )
    assert block.size == 3
    assert len(block.failed_transactions()) == 1


def test_ledger_appends_consecutive_blocks():
    ledger = Ledger()
    ledger.append(Block(number=1, transactions=[make_tx(code=ValidationCode.VALID)]))
    ledger.append(Block(number=2, transactions=[make_tx(code=ValidationCode.VALID)]))
    assert ledger.height == 2
    assert len(ledger) == 2
    assert ledger.transaction_count == 2


def test_ledger_rejects_out_of_order_blocks():
    ledger = Ledger()
    with pytest.raises(LedgerError):
        ledger.append(Block(number=2))
    ledger.append(Block(number=1))
    with pytest.raises(LedgerError):
        ledger.append(Block(number=3))


def test_ledger_rejects_duplicate_transaction_ids():
    ledger = Ledger()
    tx = make_tx(tx_id="dup", code=ValidationCode.VALID)
    other = make_tx(tx_id="dup", code=ValidationCode.VALID)
    ledger.append(Block(number=1, transactions=[tx]))
    with pytest.raises(LedgerError):
        ledger.append(Block(number=2, transactions=[other]))


def test_ledger_lookup_by_transaction_id():
    ledger = Ledger()
    tx = make_tx(code=ValidationCode.VALID)
    ledger.append(Block(number=1, transactions=[tx]))
    assert ledger.get_transaction(tx.tx_id) is tx
    assert ledger.get_transaction("unknown") is None


def test_ledger_block_accessor_is_one_based():
    ledger = Ledger()
    block = Block(number=1)
    ledger.append(block)
    assert ledger.block(1) is block
    with pytest.raises(LedgerError):
        ledger.block(0)
    with pytest.raises(LedgerError):
        ledger.block(2)


def test_ledger_committed_and_failed_partitions():
    ledger = Ledger()
    valid = make_tx(code=ValidationCode.VALID)
    failed = make_tx(code=ValidationCode.PHANTOM_READ_CONFLICT)
    ledger.append(Block(number=1, transactions=[valid, failed]))
    assert ledger.committed_transactions() == [valid]
    assert ledger.failed_transactions() == [failed]
    assert list(ledger.transactions()) == [valid, failed]
