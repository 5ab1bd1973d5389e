"""Unit tests for read/write sets (paper Definitions 1, 2 and 4)."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro import run_repetition
from repro.ledger.kvstore import Version
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet, read_sets_consistent
from repro.workload.workloads import uniform_workload


def make_rwset(reads=(), writes=(), range_reads=()):
    return ReadWriteSet(reads=list(reads), writes=list(writes), range_reads=list(range_reads))


def test_read_and_write_keys():
    rwset = make_rwset(
        reads=[KeyRead("a", Version(1, 0)), KeyRead("b", None)],
        writes=[KeyWrite("c", 1), KeyWrite("d", None, is_delete=True)],
    )
    assert rwset.read_keys() == {"a", "b"}
    assert rwset.write_keys() == {"c", "d"}


def test_range_reads_contribute_to_read_keys():
    range_read = RangeRead(
        start_key="k0", end_key="k9", reads=[KeyRead("k1", Version(1, 0)), KeyRead("k2", Version(1, 1))]
    )
    rwset = make_rwset(range_reads=[range_read])
    assert rwset.read_keys() == {"k1", "k2"}
    assert range_read.keys == ["k1", "k2"]


def test_all_reads_combines_point_and_range_reads():
    rwset = make_rwset(
        reads=[KeyRead("a", Version(1, 0))],
        range_reads=[RangeRead("k", "l", reads=[KeyRead("k1", None)])],
    )
    assert [read.key for read in rwset.all_reads()] == ["a", "k1"]


def test_depends_on_definition_4():
    reader = make_rwset(reads=[KeyRead("x", Version(1, 0))])
    writer = make_rwset(writes=[KeyWrite("x", 42)])
    unrelated = make_rwset(writes=[KeyWrite("y", 42)])
    assert reader.depends_on(writer)
    assert not reader.depends_on(unrelated)
    assert not writer.depends_on(reader)


def test_merge_counts():
    rwset = make_rwset(
        reads=[KeyRead("a", None)],
        writes=[KeyWrite("b", 1), KeyWrite("c", None, is_delete=True)],
        range_reads=[RangeRead("x", "y")],
    )
    assert rwset.merge_counts() == {"reads": 1, "writes": 1, "deletes": 1, "range_reads": 1}


def test_consistent_read_sets_equation_1_holds():
    version = Version(2, 0)
    first = make_rwset(reads=[KeyRead("a", version)])
    second = make_rwset(reads=[KeyRead("a", version), KeyRead("b", None)])
    assert read_sets_consistent([first, second])


def test_inconsistent_read_sets_detected():
    first = make_rwset(reads=[KeyRead("a", Version(1, 0))])
    second = make_rwset(reads=[KeyRead("a", Version(2, 0))])
    assert not read_sets_consistent([first, second])


def test_missing_vs_present_key_version_is_inconsistent():
    first = make_rwset(reads=[KeyRead("a", None)])
    second = make_rwset(reads=[KeyRead("a", Version(1, 0))])
    assert not read_sets_consistent([first, second])


def test_consistency_considers_range_reads():
    first = make_rwset(range_reads=[RangeRead("a", "z", reads=[KeyRead("k", Version(1, 0))])])
    second = make_rwset(reads=[KeyRead("k", Version(2, 0))])
    assert not read_sets_consistent([first, second])


def test_single_read_set_is_always_consistent():
    only = make_rwset(reads=[KeyRead("a", Version(1, 0))])
    assert read_sets_consistent([only])
    assert read_sets_consistent([])


@pytest.mark.parametrize("chaincode", ["EHR", "SCM", "DRM", "DV", "genChain"])
def test_one_execution_never_contradicts_itself(chaincode, tiny_experiment):
    # The client skips Equation 1 when every endorsement simulated the same
    # read/write set: that set is one execution against one state, so its
    # reads never name one key at two versions.  Each chaincode, every attempt.
    kwargs = {"num_keys": 2000} if chaincode == "genChain" else {}
    config = replace(tiny_experiment, workload=uniform_workload(chaincode, **kwargs))
    transactions = run_repetition(config, 0, record_chain=True).record.transactions
    assert len(transactions) > 100
    assert all(read_sets_consistent([tx.rwset]) for tx in transactions)
