"""The runner's boundary contract: a result is the cell's analysis, chain-free.

What :class:`~repro.bench.runner.ExperimentRunner` yields — from a pool
worker, from the in-process path, for a duplicate cell, from the memory cache
or from disk — is the analysis every unrecorded run produces: everything a
sweep row, a figure or a recommendation reads, and no ledger, transaction or
read/write set, because the run kept none.  Such an analysis never reads as
an empty run: every way to the chain raises :class:`~repro.errors.AnalysisError`.
"""

from __future__ import annotations

import io
import os
import pickle
import subprocess
import sys
from collections import Counter
from dataclasses import fields
from pathlib import Path

import pytest

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.bench.runner import ExperimentRunner, ResultCache
from repro.channels.group import RunArgs, simulate_group
from repro.checker.config import CheckerConfig
from repro.checker.history import write_history
from repro.core.failures import FailureType, failure_type_of
from repro.core.fingerprint import record_fingerprint
from repro.errors import AnalysisError
from repro.faults.spec import FaultConfig
from repro.ledger.block import Block, Transaction
from repro.ledger.factory import make_state_store
from repro.ledger.kvstore import EpochCommitState
from repro.ledger.ledger import Ledger
from repro.ledger.leveldb import LevelDBStore
from repro.ledger.rwset import ReadWriteSet
from repro.lifecycle.pipeline import build_network
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.network.network import CHAIN_FIELDS, RunRecord
from repro.sim.shard import ExecutionConfig
from repro.workload.workloads import uniform_workload

SRC = Path(__file__).resolve().parents[1] / "src"
CHAIN_CLASSES = (Transaction, Block, Ledger, ReadWriteSet)
RECORD_FIELDS = [field.name for field in fields(RunRecord)]
#: What a disk entry may weigh (the analyses that kept their chain weighed 100-650 KB).
ENTRY_CEILING_BYTES = 16 * 1024


def cell(duration: float = 1.5, arrival_rate: float = 60.0, **network) -> ExperimentConfig:
    options = dict(cluster="C1", clients=2, block_size=10, database="leveldb")
    options.update(network)
    return ExperimentConfig(
        workload=uniform_workload("EHR", patients=30),
        network=NetworkConfig(**options),
        arrival_rate=arrival_rate,
        duration=duration,
        seed=3,
    )


CELLS = {
    "one-channel": cell(),
    "4-channel": cell(arrival_rate=150.0, channels=4, cross_channel_rate=0.6),
    "checker-faults-retry": cell(
        duration=3.0,
        channels=2,
        cross_channel_rate=0.1,
        checker=CheckerConfig(enabled=True),
        faults=FaultConfig(orderer_outages=((0.5, 0.5),), endorsement_loss_rate=0.02),
        retry=RetryConfig(policy="jittered", max_retries=3),
    ),
}


def classes_pickled(value) -> set:
    """The class of every object the pickler reduces on the way through ``value``."""
    seen = set()

    class Probe(pickle.Pickler):
        def reducer_override(self, obj):
            seen.add(type(obj))
            return NotImplemented

    Probe(io.BytesIO(), protocol=pickle.HIGHEST_PROTOCOL).dump(value)
    return seen


# ------------------------------------------------------- what crosses, and not
@pytest.mark.parametrize("name", list(CELLS))
def test_pickling_a_runner_result_reaches_no_chain_object(name):
    config = CELLS[name]
    (result,) = ExperimentRunner(workers=1, cache=None).run_many([config])
    assert not classes_pickled(result) & set(CHAIN_CLASSES)
    assert not classes_pickled(run_repetition(config, 0)) & set(CHAIN_CLASSES)
    # The probe does see them where they are: in a recorded analysis.
    assert set(CHAIN_CLASSES) <= classes_pickled(run_repetition(config, 0, record_chain=True))


def test_pickling_a_group_result_reaches_no_chain_and_no_state_store():
    # A shard worker's channels overlay the genesis its own process holds;
    # what it sends back is the group's records and tallies — never a
    # transaction, a store or an overlay.
    config = cell(channels=2, cross_channel_rate=0.0, execution=ExecutionConfig(shard_workers=2))
    network = build_network(
        config.network,
        config.workload.chaincode,
        config.variant,
        chaincode_kwargs=config.workload.chaincode_kwargs,
        seed=3,
    )
    assert network.execution_mode == "sharded" and len(network._specs) == 2
    args = RunArgs(config.workload.mix, config.arrival_rate, config.duration, None, "EHR")
    result = simulate_group(network._specs[1], args)
    assert result.tallies[1].attempts > 0 and result.records[0].record.chain is None
    reached = classes_pickled(result)
    assert not reached & set(CHAIN_CLASSES)
    assert not [found for found in reached if issubclass(found, EpochCommitState)]
    # The probe does see a store where there is one.
    assert LevelDBStore in classes_pickled(make_state_store("leveldb"))


@pytest.mark.parametrize("name", list(CELLS))
def test_a_runner_result_is_the_analysis_of_the_run(name):
    config = CELLS[name]
    result = ExperimentRunner(workers=1, cache=None).run(config).analyses[0]
    assert result == run_repetition(config, 0)
    recorded = run_repetition(config, 0, record_chain=True)
    assert result.metrics.submitted_transactions > 50
    assert result.metrics == recorded.metrics
    channels = config.network.channels
    assert len(result.channel_analyses) == (channels if channels > 1 else 0)
    assert result.channel_analyses == recorded.channel_analyses
    assert sorted(vars(result.record)) == sorted(RECORD_FIELDS)
    assert result.record.chain is None
    for field_name in RECORD_FIELDS:
        if field_name not in ("chain", "channel_records"):
            assert getattr(result.record, field_name) == getattr(recorded.record, field_name)
    # The ranked key table is the scan it replaced: MVCC and phantom conflicts
    # only — the lock key a cross-channel abort is stamped with stays out.
    classes = [(failure_type_of(tx), tx.conflicting_key) for tx in recorded.failed_transactions]
    if name == "4-channel":
        assert any(failure is FailureType.CROSS_CHANNEL_ABORT and key for failure, key in classes)
    counts = Counter(
        key for failure, key in classes if failure.is_mvcc or failure is FailureType.PHANTOM_READ
    )
    assert result.conflicting_keys == sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    assert result.hottest_conflicting_keys(3) == result.conflicting_keys[:3] != []
    assert result.record.submitted_count == len(recorded.record.transactions) > 0
    if name == "checker-faults-retry":
        assert result.record.isolation.verdict.startswith("CERTIFIED")
        assert result.record.fault_injections and result.record.resubmissions > 0


# -------------------------------------------- never an empty run: it raises
#: accessor -> the chain field whose absence it reports.
CHAIN_ACCESSORS = {
    "record.ledgers()": (lambda analysis, _: analysis.record.ledgers(), "ledger"),
    "record.failed_transactions()": (
        lambda analysis, _: analysis.record.failed_transactions(),
        "ledger",
    ),
    "record_fingerprint(record)": (
        lambda analysis, _: record_fingerprint(analysis.record),
        "transactions",
    ),
    "write_history": (
        lambda analysis, tmp: write_history(tmp / "history.json", analysis.record),
        "ledger",
    ),
    "analysis.failed_transactions": (
        lambda analysis, _: analysis.failed_transactions,
        "ledger",
    ),
    "analysis.failures_of_type": (
        lambda analysis, _: analysis.failures_of_type(FailureType.MVCC_INTRA_BLOCK),
        "ledger",
    ),
    **{
        f"record.{name}": (lambda analysis, _, name=name: getattr(analysis.record, name), name)
        for name in CHAIN_FIELDS
    },
}


@pytest.fixture(scope="module")
def runner_analysis():
    return ExperimentRunner(workers=1, cache=None).run(CELLS["one-channel"]).analyses[0]


@pytest.mark.parametrize("accessor", list(CHAIN_ACCESSORS))
def test_every_way_to_the_chain_raises_and_names_the_attribute(
    accessor, runner_analysis, tmp_path
):
    read, attribute = CHAIN_ACCESSORS[accessor]
    with pytest.raises(AnalysisError) as error:
        read(runner_analysis, tmp_path)
    message = str(error.value)
    assert f"RunRecord.{attribute} " in message
    assert "was not recorded" in message
    assert "record_chain=True" in message
    assert not list(tmp_path.iterdir())


def test_a_channel_record_of_an_unrecorded_run_raises_too():
    analysis = run_repetition(CELLS["4-channel"], 0)
    (channel, *_) = analysis.record.channel_records
    with pytest.raises(AnalysisError, match="RunRecord.ledger was not recorded"):
        channel.ledger


def test_an_unrecorded_record_is_not_missing_anything_else():
    record = run_repetition(CELLS["one-channel"], 0).record
    with pytest.raises(AttributeError):
        record.no_such_field
    assert record.submitted_count == record.tally.attempts > 0
    assert "RunRecord" in repr(record)
    assert pickle.loads(pickle.dumps(record)) == record


def test_a_recorded_record_survives_pickle_with_its_fingerprint():
    # The chain classes pickle by their default slot state; nothing ships them
    # between processes, but a recorded record still round-trips whole.
    record = run_repetition(CELLS["one-channel"], 0, record_chain=True).record
    clone = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert clone.transactions and clone.transactions is not record.transactions
    assert record_fingerprint(clone) == record_fingerprint(record)


def test_the_cache_refuses_a_recorded_analysis(tmp_path):
    config = CELLS["one-channel"]
    cache = ResultCache(tmp_path)
    with pytest.raises(AnalysisError, match="carries its chain"):
        cache.put(config.cell_hash(), 0, run_repetition(config, 0, record_chain=True))
    assert cache.get(config.cell_hash(), 0) is None and not list(tmp_path.iterdir())


# ------------------------------------------------- one shape on every path
def _in_process(config, tmp_path):
    return ExperimentRunner(workers=1, cache=None).run(config).analyses[0]


def _pool(config, tmp_path):
    runner = ExperimentRunner(workers=2, cache=None)
    results = runner.run_many([config, config.with_overrides(arrival_rate=45.0)])
    assert runner.stats.workers == 2
    return results[0].analyses[0]


def _deduplicated(config, tmp_path):
    runner = ExperimentRunner(workers=1, cache=None)
    results = runner.run_many([config, config])
    assert (runner.stats.tasks_run, runner.stats.deduplicated) == (1, 1)
    return results[1].analyses[0]


def _memory_hit(config, tmp_path):
    runner = ExperimentRunner(workers=1, cache=ResultCache())
    runner.run(config)
    result = runner.run(config)
    assert runner.stats.cache_hits == 1
    return result.analyses[0]


def _disk_hit(config, tmp_path):
    ExperimentRunner(workers=2, cache=ResultCache(tmp_path)).run(config)
    runner = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    result = runner.run(config)
    assert (runner.stats.cache_hits, runner.stats.tasks_run) == (1, 0)
    return result.analyses[0]


def _outside_put(config, tmp_path):
    # A caller outside the runner hands the cache an analysis of its own.
    cache = ResultCache(tmp_path)
    cache.put(config.cell_hash(), 0, run_repetition(config, 0))
    assert cache.get(config.cell_hash(), 0) == ResultCache(tmp_path).get(config.cell_hash(), 0)
    return cache.get(config.cell_hash(), 0)


PATHS = [_in_process, _pool, _deduplicated, _memory_hit, _disk_hit, _outside_put]


@pytest.mark.parametrize("name", ["one-channel", "4-channel"])
@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.__name__.lstrip("_"))
def test_a_result_is_the_analysis_of_the_run_on_every_path(path, name, tmp_path):
    config = CELLS[name]
    analysis = path(config, tmp_path)
    assert analysis.record.chain is None
    # Compared as whole analyses: every record scalar, every metrics field,
    # per channel too.
    assert analysis == run_repetition(config, 0)
    for entry in tmp_path.glob("*.pkl"):
        assert entry.stat().st_size <= ENTRY_CEILING_BYTES


# ------------------------------------------------------------- the disk entry
def test_ehr_disk_entry_is_small_and_loads_in_a_fresh_interpreter(tmp_path):
    """~370 EHR transactions on cluster C2, eight endorsements each."""
    config = ExperimentConfig(
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(cluster="C2", block_size=10, database="leveldb"),
        arrival_rate=100.0,
        duration=4.0,
        seed=11,
    )
    runner = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    analysis = runner.run(config).analyses[0]
    (entry,) = tmp_path.glob("*.pkl")
    assert analysis.metrics.submitted_transactions > 300
    assert entry.stat().st_size <= ENTRY_CEILING_BYTES
    assert runner.stats.cache_bytes == entry.stat().st_size
    # The entry names no class of the ledger package, so the interpreter that
    # loads it imports repro.ledger.block only because repro.core does.
    assert b"repro.ledger" not in entry.read_bytes()
    script = (
        "import pickle, sys\n"
        "assert not any(name.startswith('repro') for name in sys.modules)\n"
        "analysis = pickle.load(open(sys.argv[1], 'rb'))\n"
        "print(analysis.metrics.submitted_transactions, analysis.record.seed)\n"
    )
    completed = subprocess.run(
        [sys.executable, "-c", script, str(entry)],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert completed.returncode == 0, completed.stderr
    assert completed.stdout.split() == [
        str(analysis.metrics.submitted_transactions),
        str(analysis.record.seed),
    ]


def test_cache_bytes_counts_what_the_batch_read_and_wrote(tmp_path):
    configs = [CELLS["one-channel"], CELLS["4-channel"]]
    cold = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    cold.run_many(configs)
    on_disk = sum(entry.stat().st_size for entry in tmp_path.glob("*.pkl"))
    assert cold.stats.cache_bytes == on_disk > 0
    warm = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    warm.run_many(configs)
    assert (warm.stats.cache_hits, warm.stats.cache_bytes) == (2, on_disk)
    # Memory hits and uncached batches move no bytes.
    warm.run_many(configs)
    assert (warm.stats.cache_hits, warm.stats.cache_bytes) == (2, 0)
    uncached = ExperimentRunner(workers=1, cache=None)
    uncached.run_many(configs)
    assert uncached.stats.cache_bytes == 0
    assert "bytes" not in warm.stats.describe()
