"""The stamp against the oracle: the comparison behind every failure count.

The product reports the failure class the aborting component stamped on the
transaction (:mod:`repro.core.failures`); ``tests/failure_oracle.py`` derives
class, conflicting key and conflicting block again from the chain alone, in
terms of the paper's Equations 1-5.  Two independent statements of the same
definitions, compared here transaction by transaction:

* on seventeen simulated cells — every variant family at one and four
  channels, faults and retries, client-side checks, range scans with phantoms
  and reordering aborts, eight coupled channels — for every validated
  transaction of every chain, valid ones included;
* on random short chains (hypothesis) whose read sets come from lagging
  replicas of the chain itself, so that every conflict shape occurs within a
  handful of transactions.

A disagreement names the cell, the channel, the transaction and the field.
"""

from __future__ import annotations

import functools
from typing import Dict, List, Tuple
from unittest import mock

import corpus
import pytest
from failure_oracle import CLASS_OF_UNDERIVED_CODE, Verdict, replay_chain, replay_failures
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench.harness import ExperimentConfig
from repro.core.analyzer import LedgerAnalyzer
from repro.core.failures import FailureType, failure_type_of
from repro.ledger.block import Block, EndorsementResponse, Transaction, ValidationCode
from repro.ledger.kvstore import VersionedKVStore
from repro.ledger.ledger import Ledger
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet, read_sets_consistent
from repro.network import validator as validator_module
from repro.network.network import RunRecord
from repro.network.validator import BlockValidator
from repro.workload.workloads import uniform_workload



def _fabricpp_cell(chaincode: str, seed: int) -> ExperimentConfig:
    """Fabric++ on a chaincode with range scans: phantoms next to reordering aborts."""
    return corpus.pin_cell("fabric++", uniform_workload(chaincode), "C1", 150.0, seed)


#: cell name -> the configuration it runs.
CELLS: Dict[str, ExperimentConfig] = {
    **{
        f"golden/{variant}/channels={channels}": corpus.golden_config(variant, channels)
        for variant in corpus.VARIANTS
        for channels in corpus.CHANNEL_COUNTS
    },
    **{f"pins/{name}": cell for name, cell in corpus.PIN_CELLS.items()},
    "fabric++/SCM": _fabricpp_cell("SCM", 31),
    "fabric++/DV": _fabricpp_cell("DV", 37),
    "8-channel/EHR-C1": corpus.ANALYSIS_CELLS["8-channel/EHR-C1"],
}


@functools.lru_cache(maxsize=None)
def run_cell(name: str) -> RunRecord:
    config = CELLS[name]
    return corpus.run(corpus.build(config, record_chain=True), config)


def stamp_of(tx: Transaction) -> Verdict:
    """What the product says of ``tx``: the three facts every report reads."""
    return Verdict(failure_type_of(tx), tx.conflicting_key, tx.conflicting_block)


def chains_of(record: RunRecord) -> List[Tuple[object, RunRecord]]:
    """``(channel label, that chain's record)`` for every chain of the run."""
    if record.channel_records:
        return [(channel.index, channel.record) for channel in record.channel_records]
    return [(None, record)]


def disagreements(cell: str, record: RunRecord) -> Tuple[List[str], int]:
    """Where stamp and oracle differ, and how many failed transactions were compared."""
    found: List[str] = []
    failed = 0
    for channel, chain in chains_of(record):
        for tx, verdict in replay_chain(chain.ledger)[0]:
            stamp = stamp_of(tx)
            failed += stamp.failure_type is not None
            for field, stamped, derived in zip(Verdict._fields, stamp, verdict):
                if stamped != derived:
                    found.append(
                        f"{cell} / channel {channel} / {tx.tx_id} / {field}: "
                        f"stamped {stamped!r}, oracle {derived!r}"
                    )
        for tx in chain.early_aborted:
            failed += 1
            derived = CLASS_OF_UNDERIVED_CODE[tx.validation_code.name]
            if failure_type_of(tx) is not derived or tx.block_number is not None:
                found.append(
                    f"{cell} / channel {channel} / {tx.tx_id} / failure_type: stamped "
                    f"{failure_type_of(tx)!r} in block {tx.block_number}, oracle {derived!r}"
                )
    return found, failed


# ------------------------------------------------------------- simulated cells
def test_the_cells_cover_every_failure_class():
    seen = {
        failure_type_of(tx) for name in CELLS for tx in run_cell(name).failed_transactions()
    }
    assert seen == set(FailureType)


@pytest.mark.parametrize("name", list(CELLS))
def test_stamp_equals_oracle_for_every_validated_transaction(name):
    found, failed = disagreements(name, run_cell(name))
    assert failed > 0, f"{name}: no transaction failed, nothing was compared"
    assert not found, f"{len(found)} disagreements, first: " + "; ".join(found[:3])


@pytest.mark.parametrize("name", ["pins/chaos/C2", "fabric++/SCM", "8-channel/EHR-C1"])
def test_analysis_lists_the_failures_in_replay_order(name):
    """Each chain in block order, then its never-on-chain aborts, channel by channel."""
    record = run_cell(name)
    analysis = LedgerAnalyzer().analyze(record)
    replayed = [
        replay_failures(chain.ledger, chain.early_aborted) for _channel, chain in chains_of(record)
    ]
    for channel, chain in zip(record.channel_records, replayed):
        assert channel.record.failed_transactions() == [tx for tx, _verdict in chain]
    flat = [failure for chain in replayed for failure in chain]
    assert [id(tx) for tx in analysis.failed_transactions] == [id(tx) for tx, _verdict in flat]
    # The tally counts the classes in that order, first seen first.
    first_seen = list(dict.fromkeys(stamp_of(tx).failure_type for tx, _verdict in flat))
    assert list(analysis.failure_report.counts) == first_seen
    counts: Dict[FailureType, int] = {}
    for _tx, verdict in flat:
        counts[verdict.failure_type] = counts.get(verdict.failure_type, 0) + 1
    assert analysis.failure_report.counts == counts
    assert list(analysis.failure_report.counts) == list(counts)  # first-seen order


def test_a_flipped_stamp_is_named():
    """The comparison has teeth: move one intra-block conflict's block, and it says which."""
    name = "pins/fabric-1.4/EHR/C1"
    record = run_cell(name)
    victim = next(
        tx
        for tx in record.failed_transactions()
        if failure_type_of(tx) is FailureType.MVCC_INTRA_BLOCK
    )
    victim.conflicting_block -= 1
    try:
        found, _failed = disagreements(name, record)
    finally:
        victim.conflicting_block += 1
    assert found == [
        f"{name} / channel None / {victim.tx_id} / failure_type: stamped "
        f"{FailureType.MVCC_INTER_BLOCK!r}, oracle {FailureType.MVCC_INTRA_BLOCK!r}",
        f"{name} / channel None / {victim.tx_id} / conflicting_block: stamped "
        f"{victim.block_number - 1!r}, oracle {victim.block_number!r}",
    ]


# ------------------------------------------------------ random chains (hypothesis)
KEYS = [f"k{index}" for index in range(8)]
#: The first five exist at genesis; the others only once a transaction puts them.
GENESIS_KEYS = KEYS[:5]

_key = st.sampled_from(KEYS)
_bounds = st.tuples(st.integers(0, 8), st.integers(0, 8)).map(sorted)
_operation = st.one_of(
    st.tuples(st.just("get"), _key),
    st.tuples(st.just("put"), _key),
    st.tuples(st.just("delete"), _key),
    st.tuples(st.just("range"), _bounds),
    st.tuples(st.just("rich"), _bounds),
)
_transaction = st.fixed_dictionaries(
    {
        "operations": st.lists(_operation, min_size=1, max_size=5),
        #: How many blocks behind the chain each endorser's replica is.
        "lags": st.lists(st.integers(0, 3), min_size=1, max_size=2),
        #: Pre-marked ABORTED_BY_REORDERING, as Fabric++ leaves a cycle member.
        "reordered": st.sampled_from([False, False, False, True]),
    }
)
_chain = st.lists(st.lists(_transaction, min_size=1, max_size=5), min_size=1, max_size=5)


def _simulate(operations, replica) -> ReadWriteSet:
    """The read/write set the operations produce against one replica's state."""
    rwset = ReadWriteSet()
    for name, argument in operations:
        if name == "get":
            rwset.reads.append(KeyRead(argument, replica.get_version(argument)))
        elif name == "put":
            rwset.writes.append(KeyWrite(argument, "value"))
        elif name == "delete":
            rwset.writes.append(KeyWrite(argument, None, True))
        else:
            start, end = (f"k{index}" for index in argument)  # "k8": above the last key
            reads = [KeyRead(key, entry.version) for key, entry in replica.range(start, end)]
            if name == "range":
                # Stamped like an in-sequence endorser's: the snapshot's epoch
                # names the canonical state it reproduces.
                rwset.range_reads.append(RangeRead(start, end, reads, state_token=replica.epoch))
            else:  # a rich query: results recorded, never re-executed
                rwset.range_reads.append(
                    RangeRead("", "", reads, phantom_detection=False, rich_query=True)
                )
    return rwset


#: The phantom window of the random chains: replicas lag 0-3 blocks, so some
#: range reads are decided from the keys written and some re-scan.
RANDOM_CHAIN_WINDOW = 2


@mock.patch.object(validator_module, "PHANTOM_WINDOW", RANDOM_CHAIN_WINDOW)
@settings(max_examples=150, deadline=None)
@given(_chain)
def test_validator_stamp_equals_oracle_on_random_chains(chain):
    genesis = VersionedKVStore()
    genesis.populate({key: "genesis" for key in GENESIS_KEYS})
    genesis.freeze()
    # An overlay over a frozen genesis names its state, as a channel's does.
    store = genesis.overlay()
    validator = BlockValidator(store)
    ledger = Ledger()
    for number, drafts in enumerate(chain, start=1):
        transactions = []
        for index, draft in enumerate(drafts):
            tx = Transaction(f"tx-{number}-{index}", "client", "test", "f")
            tx.endorsements = [
                EndorsementResponse(
                    f"peer{peer}",
                    "org",
                    _simulate(
                        draft["operations"],
                        store.snapshot(max(0, store.commit_epoch - lag)),
                    ),
                    completed_at=0.0,
                )
                for peer, lag in enumerate(draft["lags"])
            ]
            # What the client's endorsement round leaves on the transaction.
            tx.rwset = tx.endorsements[0].rwset
            tx.endorsement_mismatch = not read_sets_consistent(
                response.rwset for response in tx.endorsements
            )
            if draft["reordered"]:
                tx.validation_code = ValidationCode.ABORTED_BY_REORDERING
            transactions.append(tx)
        block = Block(number=number, transactions=transactions)
        validator.validate_block(block)
        ledger.append(block)
    verdicts, replayed = replay_chain(ledger)
    assert [stamp_of(tx) for tx, _verdict in verdicts] == [verdict for _tx, verdict in verdicts]
    assert len(verdicts) == ledger.transaction_count
    for key, version in replayed.versions.items():
        assert store.get_version(key) == version, key
