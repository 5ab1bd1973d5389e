"""The runner's boundary contract: a result is the cell's *detached* analysis.

What :class:`~repro.bench.runner.ExperimentRunner` yields — from a pool
worker, from the in-process path, for a duplicate cell, from the memory cache
or from disk — is everything a sweep row, a figure or a recommendation reads,
with the chain (ledger, transactions, read/write sets) left in the process that
simulated the cell.  A detached result never reads as an empty run: every way
to the chain raises :class:`~repro.errors.AnalysisError`.
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
KEPT_RECORD_FIELDS = [field.name for field in fields(RunRecord) if field.name not in CHAIN_FIELDS]
#: What a disk entry may weigh (the attached analyses weighed 100-650 KB).
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
    # The probe does see them where they are: in the attached analysis.
    assert set(CHAIN_CLASSES) <= classes_pickled(run_repetition(config, 0))


def test_pickling_a_group_result_reaches_no_state_store():
    # A shard worker's channels overlay the genesis its own process holds;
    # what it sends back is the group's records, never a store or an overlay.
    config = cell(channels=2, cross_channel_rate=0.0, execution=ExecutionConfig(shard_workers=2))
    network = build_network(config.network, config.build_chaincode, config.variant, seed=3)
    assert network.execution_mode == "sharded" and len(network._specs) == 2
    args = RunArgs(config.workload.mix, config.arrival_rate, config.duration, None, "EHR")
    result = simulate_group(network._specs[1], args)
    assert result.records[0].record.transactions
    reached = classes_pickled(result)
    assert set(CHAIN_CLASSES) <= reached
    assert not [found for found in reached if issubclass(found, EpochCommitState)]
    # The probe does see a store where there is one.
    assert LevelDBStore in classes_pickled(make_state_store("leveldb"))


@pytest.mark.parametrize("name", list(CELLS))
def test_detached_analysis_keeps_everything_but_the_chain(name):
    config = CELLS[name]
    attached = run_repetition(config, 0)
    detached = ExperimentRunner(workers=1, cache=None).run(config).analyses[0]
    assert attached.metrics.submitted_transactions > 50
    assert detached.metrics == attached.metrics
    channels = config.network.channels
    assert len(detached.channel_analyses) == (channels if channels > 1 else 0)
    for ours, theirs in zip(detached.channel_analyses, attached.channel_analyses):
        assert (ours.index, ours.name, ours.metrics) == (theirs.index, theirs.name, theirs.metrics)
        assert ours.cross_channel_submitted == theirs.cross_channel_submitted
        assert ours.cross_channel_aborted == theirs.cross_channel_aborted
    assert sorted(vars(detached.record)) == sorted(KEPT_RECORD_FIELDS)
    for field_name in KEPT_RECORD_FIELDS:
        assert getattr(detached.record, field_name) == getattr(attached.record, field_name)
    # The ranked key table is the scan it replaced: MVCC and phantom conflicts
    # only — the lock key a cross-channel abort is stamped with stays out.
    classes = [(failure_type_of(tx), tx.conflicting_key) for tx in attached.failed_transactions]
    if name == "4-channel":
        assert any(failure is FailureType.CROSS_CHANNEL_ABORT and key for failure, key in classes)
    counts = Counter(
        key for failure, key in classes if failure.is_mvcc or failure is FailureType.PHANTOM_READ
    )
    assert attached.conflicting_keys == sorted(counts.items(), key=lambda pair: (-pair[1], pair[0]))
    assert detached.hottest_conflicting_keys(3) == attached.conflicting_keys[:3] != []
    assert detached == attached.detached()
    assert detached != attached
    # Detaching again changes nothing, and the attached analysis stays whole.
    assert detached.detached() == detached
    assert attached.record.submitted_count == len(attached.record.transactions) > 0
    if name == "checker-faults-retry":
        assert detached.record.isolation.verdict.startswith("CERTIFIED")
        assert detached.record.fault_injections and detached.record.resubmissions > 0


# -------------------------------------------- never an empty run: it raises
#: accessor -> the chain field whose absence it reports.
CHAIN_ACCESSORS = {
    "record.ledgers()": (lambda analysis, _: analysis.record.ledgers(), "channel_records"),
    "record.failed_transactions()": (
        lambda analysis, _: analysis.record.failed_transactions(),
        "channel_records",
    ),
    "record.submitted_count": (lambda analysis, _: analysis.record.submitted_count, "transactions"),
    "record_fingerprint(record)": (
        lambda analysis, _: record_fingerprint(analysis.record),
        "transactions",
    ),
    "write_history": (
        lambda analysis, tmp: write_history(tmp / "history.json", analysis.record),
        "channel_records",
    ),
    "analysis.failed_transactions": (
        lambda analysis, _: analysis.failed_transactions,
        "channel_records",
    ),
    "analysis.failures_of_type": (
        lambda analysis, _: analysis.failures_of_type(FailureType.MVCC_INTRA_BLOCK),
        "channel_records",
    ),
    **{
        f"record.{name}": (lambda analysis, _, name=name: getattr(analysis.record, name), name)
        for name in CHAIN_FIELDS
    },
}


@pytest.fixture(scope="module")
def detached_analysis():
    return ExperimentRunner(workers=1, cache=None).run(CELLS["one-channel"]).analyses[0]


@pytest.mark.parametrize("accessor", list(CHAIN_ACCESSORS))
def test_every_way_to_the_chain_raises_and_names_the_attribute(
    accessor, detached_analysis, tmp_path
):
    read, attribute = CHAIN_ACCESSORS[accessor]
    with pytest.raises(AnalysisError) as error:
        read(detached_analysis, tmp_path)
    message = str(error.value)
    assert f"RunRecord.{attribute} " in message
    assert "left in the process that simulated the cell" in message
    assert "run_experiment / run_repetition" in message
    assert not list(tmp_path.iterdir())


def test_a_detached_record_is_not_missing_anything_else():
    record = run_repetition(CELLS["one-channel"], 0).record.detached()
    with pytest.raises(AttributeError):
        record.no_such_field
    assert "RunRecord" in repr(record)
    assert pickle.loads(pickle.dumps(record)) == record


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


def _attached_put(config, tmp_path):
    # A caller outside the runner hands the cache an attached analysis.
    cache = ResultCache(tmp_path)
    cache.put(config.cell_hash(), 0, run_repetition(config, 0))
    assert cache.get(config.cell_hash(), 0) == ResultCache(tmp_path).get(config.cell_hash(), 0)
    return cache.get(config.cell_hash(), 0)


PATHS = [_in_process, _pool, _deduplicated, _memory_hit, _disk_hit, _attached_put]


@pytest.mark.parametrize("name", ["one-channel", "4-channel"])
@pytest.mark.parametrize("path", PATHS, ids=lambda path: path.__name__.lstrip("_"))
def test_a_result_is_detached_and_equal_on_every_path(path, name, tmp_path):
    config = CELLS[name]
    analysis = path(config, tmp_path)
    assert not set(CHAIN_FIELDS) & set(vars(analysis.record))
    # Compared as whole analyses: every record scalar, every metrics field,
    # per channel too.
    assert analysis == run_repetition(config, 0).detached()
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
