"""Unit tests for the formal failure definitions and the ledger-replay oracle.

Both live in ``tests/failure_oracle.py``: the product reads the failure class
off the stamp the aborting component leaves (:mod:`repro.core.failures`), and
the replay built from Equations 1-5 is what the stamp is checked against
(``tests/test_failure_oracle.py``).  These are the oracle's own unit tests, on
hand-built ledgers that carry no stamp.
"""

from __future__ import annotations

from failure_oracle import (
    is_endorsement_policy_failure,
    is_inter_block_conflict,
    is_intra_block_conflict,
    is_transaction_dependency,
    mvcc_conflicting_key,
    phantom_conflicting_key,
    replay_failures,
)

from repro.core.failures import FailureType
from repro.ledger.block import Block, Transaction, ValidationCode
from repro.ledger.kvstore import GENESIS_VERSION, Version
from repro.ledger.ledger import Ledger
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet


def rwset(reads=(), writes=(), range_reads=()):
    return ReadWriteSet(reads=list(reads), writes=list(writes), range_reads=list(range_reads))


def ledger_tx(tx_id, code, reads=(), writes=(), range_reads=()):
    tx = Transaction(tx_id=tx_id, client_name="c", chaincode_name="t", function="f")
    tx.rwset = rwset(reads, writes, range_reads)
    tx.validation_code = code
    return tx


# --------------------------------------------------------------- formal definitions
def test_equation_1_endorsement_policy_failure():
    consistent = [
        rwset(reads=[KeyRead("a", GENESIS_VERSION)]),
        rwset(reads=[KeyRead("a", GENESIS_VERSION)]),
    ]
    inconsistent = [
        rwset(reads=[KeyRead("a", GENESIS_VERSION)]),
        rwset(reads=[KeyRead("a", Version(4, 0))]),
    ]
    assert not is_endorsement_policy_failure(consistent)
    assert is_endorsement_policy_failure(inconsistent)


def test_equation_2_mvcc_conflicting_key():
    world = {"a": Version(2, 0), "b": GENESIS_VERSION}
    fresh = rwset(reads=[KeyRead("a", Version(2, 0)), KeyRead("b", GENESIS_VERSION)])
    stale = rwset(reads=[KeyRead("b", GENESIS_VERSION), KeyRead("a", GENESIS_VERSION)])
    missing = rwset(reads=[KeyRead("ghost", GENESIS_VERSION)])
    assert mvcc_conflicting_key(fresh, world) is None
    assert mvcc_conflicting_key(stale, world) == "a"
    assert mvcc_conflicting_key(missing, world) == "ghost"


def test_definition_4_transaction_dependency():
    reader = rwset(reads=[KeyRead("x", None)])
    writer = rwset(writes=[KeyWrite("x", 1)])
    assert is_transaction_dependency(reader, writer)
    assert not is_transaction_dependency(writer, reader)


def test_equations_3_and_4_block_positions():
    assert is_intra_block_conflict((5, 3), (5, 1))
    assert not is_intra_block_conflict((5, 1), (5, 3))
    assert is_inter_block_conflict((6, 0), (5, 9))
    assert not is_inter_block_conflict((5, 0), (5, 1))


def test_equation_5_phantom_conflicting_key():
    range_read = RangeRead(
        start_key="k1",
        end_key="k9",
        reads=[KeyRead("k1", GENESIS_VERSION), KeyRead("k2", GENESIS_VERSION)],
    )
    unchanged = {"k1": GENESIS_VERSION, "k2": GENESIS_VERSION}
    updated = {"k1": GENESIS_VERSION, "k2": Version(3, 0)}
    inserted = {"k1": GENESIS_VERSION, "k2": GENESIS_VERSION, "k5": Version(2, 0)}
    assert phantom_conflicting_key(range_read, unchanged) is None
    assert phantom_conflicting_key(range_read, updated) == "k2"
    assert phantom_conflicting_key(range_read, inserted) == "k5"
    rich = RangeRead(start_key="", end_key="", reads=[], phantom_detection=False)
    assert phantom_conflicting_key(rich, updated) is None


def test_failure_type_mvcc_grouping():
    assert FailureType.MVCC_INTRA_BLOCK.is_mvcc
    assert FailureType.MVCC_INTER_BLOCK.is_mvcc
    assert not FailureType.ENDORSEMENT_POLICY.is_mvcc
    assert not FailureType.PHANTOM_READ.is_mvcc


# ----------------------------------------------------------------------- replay
def build_ledger_with_conflicts():
    """Two blocks: writer commits in block 1; conflicting readers in blocks 1 and 2."""
    ledger = Ledger()
    writer = ledger_tx(
        "writer",
        ValidationCode.VALID,
        reads=[KeyRead("hot", GENESIS_VERSION)],
        writes=[KeyWrite("hot", 1)],
    )
    intra_loser = ledger_tx(
        "intra",
        ValidationCode.MVCC_READ_CONFLICT,
        reads=[KeyRead("hot", GENESIS_VERSION)],
        writes=[KeyWrite("hot", 2)],
    )
    endorse_fail = ledger_tx("endorse", ValidationCode.ENDORSEMENT_POLICY_FAILURE)
    ledger.append(Block(number=1, transactions=[writer, intra_loser, endorse_fail]))

    inter_loser = ledger_tx(
        "inter",
        ValidationCode.MVCC_READ_CONFLICT,
        reads=[KeyRead("hot", GENESIS_VERSION)],
    )
    phantom = ledger_tx(
        "phantom",
        ValidationCode.PHANTOM_READ_CONFLICT,
        range_reads=[RangeRead("h", "i", reads=[KeyRead("hot", GENESIS_VERSION)])],
    )
    reorder_abort = ledger_tx("reorder", ValidationCode.ABORTED_BY_REORDERING)
    ledger.append(Block(number=2, transactions=[inter_loser, phantom, reorder_abort]))
    return ledger


def test_classifier_distinguishes_intra_and_inter_block_conflicts():
    ledger = build_ledger_with_conflicts()
    by_id = {tx.tx_id: verdict for tx, verdict in replay_failures(ledger)}
    assert by_id["intra"].failure_type is FailureType.MVCC_INTRA_BLOCK
    assert by_id["intra"].conflicting_key == "hot"
    assert by_id["intra"].conflicting_block == 1
    assert by_id["inter"].failure_type is FailureType.MVCC_INTER_BLOCK
    assert by_id["inter"].conflicting_block == 1


def test_classifier_handles_all_failure_codes():
    ledger = build_ledger_with_conflicts()
    by_id = {tx.tx_id: verdict for tx, verdict in replay_failures(ledger)}
    assert by_id["endorse"].failure_type is FailureType.ENDORSEMENT_POLICY
    assert by_id["phantom"].failure_type is FailureType.PHANTOM_READ
    assert by_id["phantom"].conflicting_key == "hot"
    assert by_id["reorder"].failure_type is FailureType.ORDERING_ABORT
    assert "writer" not in by_id  # committed transactions are not classified


def test_classifier_includes_early_aborted_transactions():
    ledger = build_ledger_with_conflicts()
    early = ledger_tx("early", ValidationCode.EARLY_ABORT)
    dropped = ledger_tx("client-drop", ValidationCode.ENDORSEMENT_POLICY_FAILURE)
    by_id = {tx.tx_id: verdict for tx, verdict in replay_failures(ledger, [early, dropped])}
    assert by_id["early"].failure_type is FailureType.EARLY_ABORT
    assert by_id["client-drop"].failure_type is FailureType.ENDORSEMENT_POLICY


def test_classifier_is_mvcc_helper():
    ledger = build_ledger_with_conflicts()
    mvcc = [verdict for _tx, verdict in replay_failures(ledger) if verdict.is_mvcc]
    assert len(mvcc) == 2


def test_classifier_counts_match_validation_codes():
    ledger = build_ledger_with_conflicts()
    assert len(replay_failures(ledger)) == len(ledger.failed_transactions())
