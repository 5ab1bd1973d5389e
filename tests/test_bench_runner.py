"""Tests for the parallel experiment runner, seed derivation and result cache."""

from __future__ import annotations

import contextlib
import os
import pickle
import subprocess
import sys
from types import SimpleNamespace

import pytest
from test_runner_results import ENTRY_CEILING_BYTES

from repro.bench.harness import (
    ExperimentConfig,
    repetition_seed,
    run_experiment,
    run_repetition,
)
from repro.bench.runner import (
    ExperimentRunner,
    ProgressEvent,
    ResultCache,
    SweepPlan,
)
from repro.bench.reporting import format_progress
from repro.chaincode.generator import ChaincodeGenerator, FunctionSpec
from repro.core.analyzer import ExperimentAnalysis
from repro.errors import ConfigurationError
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.observability.config import ObservabilityConfig
from repro.sim.shard import PROCESS_BUDGET_ENV, ExecutionConfig
from repro.workload.spec import TransactionMix
from repro.workload.workloads import uniform_workload


def tiny_config(**overrides) -> ExperimentConfig:
    defaults = dict(
        workload=uniform_workload("EHR", patients=30),
        network=NetworkConfig(cluster="C1", clients=2, block_size=10, database="leveldb"),
        arrival_rate=40.0,
        duration=1.5,
        repetitions=1,
        seed=3,
    )
    defaults.update(overrides)
    return ExperimentConfig(**defaults)


def _metric_tuples(result):
    return [
        (
            metric.submitted_transactions,
            metric.committed_transactions,
            metric.average_latency,
            metric.committed_throughput,
            metric.failure_report.total_failure_pct,
        )
        for metric in result.metrics
    ]


# ------------------------------------------------------------- seed derivation
def test_adjacent_seeds_do_not_collide_across_repetitions():
    """Regression: ``seed + repetition`` collided for adjacent config seeds."""
    config_a = tiny_config(seed=7, repetitions=2)
    config_b = tiny_config(seed=8, repetitions=2)
    # Old scheme: A's repetition 1 and B's repetition 0 both ran with seed 8.
    assert repetition_seed(config_a, 1) != repetition_seed(config_b, 0)
    # And the adjacent-seed experiments now produce different streams end to end.
    result_a = run_experiment(config_a)
    result_b = run_experiment(config_b)
    assert _metric_tuples(result_a)[1] != _metric_tuples(result_b)[0]


def test_repetition_seed_is_stable_and_per_repetition():
    config = tiny_config()
    assert repetition_seed(config, 0) == repetition_seed(tiny_config(), 0)
    assert repetition_seed(config, 0) != repetition_seed(config, 1)


def test_repetition_seed_ignores_repetition_count():
    """Raising ``repetitions`` must keep the identity of earlier repetitions."""
    short = tiny_config(repetitions=1)
    long = tiny_config(repetitions=3)
    assert short.cell_hash() == long.cell_hash()
    assert repetition_seed(short, 0) == repetition_seed(long, 0)


def test_repetition_seed_depends_on_config_content():
    assert repetition_seed(tiny_config(), 0) != repetition_seed(tiny_config(arrival_rate=41.0), 0)
    assert repetition_seed(tiny_config(), 0) != repetition_seed(tiny_config(variant="fabric++"), 0)


def test_run_record_carries_derived_seed():
    config = tiny_config(repetitions=2)
    result = run_experiment(config)
    assert [analysis.record.seed for analysis in result.analyses] == [
        repetition_seed(config, 0),
        repetition_seed(config, 1),
    ]


def generated_cell(*specs: FunctionSpec) -> ExperimentConfig:
    """A cell over a generated chaincode: the registry name plus its specification."""
    generator = ChaincodeGenerator(name="assets", num_keys=50)
    for spec in specs:
        generator.add_function(spec)
    mix = TransactionMix.uniform([spec.name for spec in specs])
    return tiny_config(workload=generator.workload("assets", mix))


def test_cell_hash_distinguishes_generated_specifications():
    read = FunctionSpec(name="readAsset", reads=1)
    assert generated_cell(read).cell_hash() == generated_cell(read).cell_hash()
    assert generated_cell(read).cell_hash() != generated_cell(
        FunctionSpec(name="readAsset", reads=2)
    ).cell_hash()
    assert generated_cell(read).cell_hash() != generated_cell(
        read, FunctionSpec(name="put", inserts=1)
    ).cell_hash()
    small, large = (uniform_workload("genChain", num_keys=keys) for keys in (100, 200))
    assert tiny_config(workload=small).cell_hash() != tiny_config(workload=large).cell_hash()


def test_cell_hash_of_a_generated_cell_is_the_same_in_every_interpreter():
    script = (
        "from test_bench_runner import FunctionSpec, generated_cell\n"
        "print(generated_cell(FunctionSpec(name='readAsset', reads=1)).cell_hash())\n"
    )
    outputs = set()
    for hash_seed in ("0", "1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=os.pathsep.join(sys.path))
        outputs.add(subprocess.check_output([sys.executable, "-c", script], env=env, text=True))
    assert len(outputs) == 1 and len(outputs.pop().split()) == 1


# --------------------------------------------------- serial/parallel equivalence
def test_parallel_execution_matches_serial_execution():
    plan = SweepPlan(base=tiny_config(repetitions=2), block_sizes=(5, 20), arrival_rates=(30, 60))
    serial = ExperimentRunner(workers=1).run_sweep(plan)
    parallel = ExperimentRunner(workers=3).run_sweep(plan)
    assert parallel.stats.workers == 3
    assert serial.rows() == parallel.rows()
    for serial_result, parallel_result in zip(serial.results, parallel.results):
        assert _metric_tuples(serial_result) == _metric_tuples(parallel_result)


def test_runner_matches_run_experiment():
    config = tiny_config(repetitions=2)
    direct = run_experiment(config)
    via_runner = ExperimentRunner(workers=2).run(config)
    assert _metric_tuples(direct) == _metric_tuples(via_runner)


def test_a_generated_cell_runs_in_the_pool_as_it_runs_in_process():
    config = generated_cell(
        FunctionSpec(name="readAsset", reads=1), FunctionSpec(name="moveAsset", reads=1, updates=1)
    ).with_overrides(repetitions=2)
    runner = ExperimentRunner(workers=2)
    pooled = runner.run(config)
    assert runner.stats.workers == 2
    assert pooled.value("submitted_transactions") > 0
    assert _metric_tuples(pooled) == _metric_tuples(run_experiment(config))


# ----------------------------------------------------------------------- cache
def test_cache_hits_on_identical_rerun_and_lower_wall_clock():
    runner = ExperimentRunner(workers=1, cache=ResultCache())
    configs = [tiny_config(), tiny_config(arrival_rate=60.0)]
    first = runner.run_many(configs)
    first_stats = runner.stats
    assert (first_stats.cache_hits, first_stats.tasks_run) == (0, 2)

    second = runner.run_many(configs)
    second_stats = runner.stats
    assert (second_stats.cache_hits, second_stats.tasks_run) == (2, 0)
    assert second_stats.wall_clock < first_stats.wall_clock
    for before, after in zip(first, second):
        assert _metric_tuples(before) == _metric_tuples(after)


def test_duplicate_cells_in_one_batch_run_once():
    runner = ExperimentRunner(workers=1, cache=ResultCache())
    first, second = runner.run_many([tiny_config(), tiny_config()])
    assert runner.stats.tasks_run == 1
    assert runner.stats.deduplicated == 1
    assert "1 deduplicated" in runner.stats.describe()
    assert _metric_tuples(first) == _metric_tuples(second)
    # Dedup also works without any cache attached.
    uncached = ExperimentRunner(workers=1)
    uncached.run_many([tiny_config(), tiny_config()])
    assert uncached.stats.tasks_run == 1


def test_cache_misses_after_config_change():
    runner = ExperimentRunner(workers=1, cache=ResultCache())
    runner.run(tiny_config())
    runner.run(tiny_config(arrival_rate=41.0))
    assert runner.stats.cache_hits == 0
    assert runner.stats.tasks_run == 1


def test_cache_reuses_repetitions_when_count_grows():
    runner = ExperimentRunner(workers=1, cache=ResultCache())
    runner.run(tiny_config(repetitions=1))
    runner.run(tiny_config(repetitions=3))
    assert runner.stats.cache_hits == 1
    assert runner.stats.tasks_run == 2


def test_disk_cache_survives_runner_instances(tmp_path):
    config = tiny_config()
    first = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    before = first.run(config)
    assert first.stats.tasks_run == 1

    second = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    after = second.run(config)
    assert second.stats.cache_hits == 1
    assert second.stats.tasks_run == 0
    assert _metric_tuples(before) == _metric_tuples(after)


def test_cache_clear_forgets_entries(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(workers=1, cache=cache)
    runner.run(tiny_config())
    assert len(cache) == 1
    cache.clear()
    assert len(cache) == 0
    assert list(tmp_path.glob("*.pkl")) == []
    runner.run(tiny_config())
    assert runner.stats.cache_hits == 0


def test_corrupt_disk_entry_is_treated_as_miss(tmp_path):
    cache = ResultCache(tmp_path)
    runner = ExperimentRunner(workers=1, cache=cache)
    runner.run(tiny_config())
    for path in tmp_path.glob("*.pkl"):
        path.write_bytes(b"not a pickle")
    fresh = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    fresh.run(tiny_config())
    assert fresh.stats.cache_hits == 0
    assert fresh.stats.tasks_run == 1


def _truncate(blob: bytes) -> bytes:
    return blob[: len(blob) // 2]


def _flip_frame_length(blob: bytes) -> bytes:
    # Bytes 3..10 of a framed pickle are the first frame's length; flipping
    # its top byte makes the unpickler raise OverflowError, not UnpicklingError.
    return blob[:10] + bytes([blob[10] ^ 0xFF]) + blob[11:]


def _wrong_type(blob: bytes) -> bytes:
    return pickle.dumps({"not": "an analysis"})


def _earlier_shape(blob: bytes) -> bytes:
    # What a cache directory written by an early tree holds: a whole analysis
    # with its chain and ``failed_transactions`` list — without the two facts
    # the analyzer has computed since.  Every class it
    # names still exists, so it unpickles, into an object that raises
    # AttributeError on first use.
    analysis = run_repetition(tiny_config(), 0, record_chain=True)
    state = vars(analysis)
    state["failed_transactions"] = analysis.record.failed_transactions()
    del state["conflicting_keys"], state["read_only_share"]
    return pickle.dumps(analysis)


@pytest.mark.parametrize("damage", [_truncate, _flip_frame_length, _wrong_type, _earlier_shape])
def test_damaged_disk_entry_is_recomputed_counted_and_overwritten(tmp_path, damage):
    config = tiny_config()
    before = ExperimentRunner(workers=1, cache=ResultCache(tmp_path)).run(config)
    (entry,) = tmp_path.glob("*.pkl")
    entry.write_bytes(damage(entry.read_bytes()))

    cache = ResultCache(tmp_path)
    assert cache.get(config.cell_hash(), 0) is None
    assert cache.corrupt_entries == 1
    runner = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    after = runner.run(config)
    assert (runner.stats.cache_hits, runner.stats.tasks_run) == (0, 1)
    assert runner.stats.cache_corrupt == 1
    assert entry.stat().st_size <= ENTRY_CEILING_BYTES
    assert "0 cached, 1 corrupt, 1 executed" in runner.stats.describe()
    assert _metric_tuples(after) == _metric_tuples(before)

    healed = ExperimentRunner(workers=1, cache=ResultCache(tmp_path))
    healed.run(config)
    assert (healed.stats.cache_hits, healed.stats.cache_corrupt) == (1, 0)
    assert "corrupt" not in healed.stats.describe()
    assert [path.name for path in tmp_path.iterdir()] == [entry.name]


def test_no_single_flipped_byte_escapes_the_cache(tmp_path):
    config = tiny_config()
    ExperimentRunner(workers=1, cache=ResultCache(tmp_path)).run(config)
    (entry,) = tmp_path.glob("*.pkl")
    blob = entry.read_bytes()
    cell_hash = config.cell_hash()
    outcomes = {"miss": 0, "hit": 0}
    for offset in range(0, len(blob), max(1, len(blob) // 400)):
        entry.write_bytes(blob[:offset] + bytes([blob[offset] ^ 0xFF]) + blob[offset + 1 :])
        cache = ResultCache(tmp_path)
        loaded = cache.get(cell_hash, 0)  # must never raise
        if loaded is None:
            assert cache.corrupt_entries == 1
            outcomes["miss"] += 1
        else:
            # A flip inside a string or float payload still loads.
            assert isinstance(loaded, ExperimentAnalysis)
            outcomes["hit"] += 1
    assert outcomes["miss"] > 0


# ------------------------------------------------------------------ sweep plan
def test_sweep_plan_expands_the_full_grid():
    plan = SweepPlan(
        base=tiny_config(),
        variants=("fabric-1.4", "streamchain"),
        block_sizes=(5, 20),
        arrival_rates=(30,),
    )
    cells = plan.cells()
    assert len(cells) == 4
    assert [(cell.variant, cell.block_size) for cell in cells] == [
        ("fabric-1.4", 5),
        ("fabric-1.4", 20),
        ("streamchain", 5),
        ("streamchain", 20),
    ]
    assert all(cell.arrival_rate == 30.0 for cell in cells)
    # Unswept axes pin to the base config.
    assert all(cell.zipf_skew == 1.0 for cell in cells)
    assert all(cell.config.network.block_size == cell.block_size for cell in cells)


def test_sweep_plan_rejects_explicitly_empty_axes():
    with pytest.raises(ConfigurationError):
        SweepPlan(base=tiny_config(), block_sizes=()).cells()
    with pytest.raises(ConfigurationError):
        SweepPlan(base=tiny_config(), arrival_rates=[]).cells()


def test_run_sweep_pairs_cells_with_results():
    plan = SweepPlan(base=tiny_config(), block_sizes=(5, 20))
    outcome = ExperimentRunner(workers=1).run_sweep(plan)
    assert len(outcome.rows()) == 2
    for cell, result in zip(outcome.cells, outcome.results):
        assert result.config.network.block_size == cell.block_size
        assert result.value("submitted_transactions") > 0


# -------------------------------------------------------------------- progress
def test_progress_hook_sees_every_completion():
    events = []
    runner = ExperimentRunner(workers=1, cache=ResultCache(), progress=events.append)
    runner.run_many([tiny_config(), tiny_config(arrival_rate=60.0)])
    assert [event.completed for event in events] == [0, 1, 2]
    assert all(event.total == 2 for event in events)
    final = events[-1]
    assert final.remaining == 0
    assert final.eta == 0.0
    assert "100%" in format_progress(final)

    events.clear()
    runner.run_many([tiny_config()])
    assert events[0] == ProgressEvent(
        completed=1, total=1, cache_hits=1, elapsed=events[0].elapsed
    )


# ----------------------------------------------------------------- validation
def test_runner_rejects_bad_worker_counts():
    with pytest.raises(ConfigurationError):
        ExperimentRunner(workers=0)
    with pytest.raises(ConfigurationError):
        ExperimentRunner(workers=-2)


def test_runner_validates_configs_before_running():
    runner = ExperimentRunner(workers=1)
    with pytest.raises(ConfigurationError):
        runner.run(tiny_config(arrival_rate=-1.0))


def test_default_worker_count_is_the_cores_this_process_may_use(monkeypatch):
    # ``os.cpu_count()`` counts the machine; the affinity mask is what a
    # ``taskset -c 0`` run may use.
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert ExperimentRunner(workers=None).workers == 1


# ------------------------------------------------------------ process budget
def _miss(config) -> "_Task":
    from repro.bench.runner import _Task

    return _Task(config_index=0, repetition=0, config=config, cell_hash=config.cell_hash())


def _sharded_config(shard_workers: int = 4) -> ExperimentConfig:
    from repro.sim.shard import ExecutionConfig

    return tiny_config(
        network=NetworkConfig(
            cluster="C1",
            clients=2,
            block_size=10,
            database="leveldb",
            channels=4,
            cross_channel_rate=0.0,
            execution=ExecutionConfig(shard_workers=shard_workers),
        )
    )


@pytest.mark.parametrize(
    "budget,network,expected",
    [
        (None, dict(channels=1, execution=ExecutionConfig(shard_workers=0)), 1),
        # Observed: shared clock, whatever shard_workers asks for.
        (
            None,
            dict(
                channels=4,
                execution=ExecutionConfig(shard_workers=0),
                observability=ObservabilityConfig(trace=True),
            ),
            1,
        ),
        # Sharded, every shard drained by this one process.
        (None, dict(channels=4), 1),
        # Coupled: shared clock.
        (None, dict(channels=4, cross_channel_rate=0.1, execution=ExecutionConfig(0)), 1),
        (None, dict(channels=4, execution=ExecutionConfig(shard_workers=2)), 2),
        ("2", dict(channels=8, execution=ExecutionConfig(shard_workers=0)), 2),
        # Sharded, every shard drained by the one process the budget allows.
        ("1", dict(channels=4, execution=ExecutionConfig(shard_workers=0)), 1),
        # One global resubmission bucket cannot be split across processes, so
        # the plan is shared-clock whatever shard_workers asks for; budgeting
        # one process per channel here would serialise the sweep for nothing.
        (
            "8",
            dict(
                channels=8,
                execution=ExecutionConfig(shard_workers=0),
                retry=RetryConfig(policy="jittered", rate_cap=50.0),
            ),
            1,
        ),
    ],
    ids=[
        "one-channel",
        "shared-clock",
        "default",
        "coupled",
        "two-workers",
        "auto",
        "in-process-shards",
        "rate-capped",
    ],
)
def test_task_footprint_is_what_the_plan_occupies(budget, network, expected, monkeypatch):
    if budget is None:
        monkeypatch.delenv(PROCESS_BUDGET_ENV, raising=False)
    else:
        monkeypatch.setenv(PROCESS_BUDGET_ENV, budget)
    task = _miss(tiny_config(network=NetworkConfig(**network)))
    assert ExperimentRunner._task_footprint(task) == expected


def test_worker_pool_is_capped_by_the_shard_footprint(monkeypatch):
    from repro.sim.shard import PROCESS_BUDGET_ENV

    monkeypatch.setenv(PROCESS_BUDGET_ENV, "8")
    runner = ExperimentRunner(workers=8, cache=None)
    misses = [_miss(_sharded_config(shard_workers=4)) for _ in range(8)]
    # Each repetition fans out into 4 shard processes, so only 8 // 4 = 2
    # runner workers fit under the budget of 8 processes.
    assert runner._budget_cap(misses) == 2
    assert runner._effective_workers(misses) == 2


def test_plain_tasks_do_not_shrink_the_pool(monkeypatch):
    from repro.sim.shard import PROCESS_BUDGET_ENV

    monkeypatch.setenv(PROCESS_BUDGET_ENV, "2")
    runner = ExperimentRunner(workers=4, cache=None)
    misses = [_miss(tiny_config(seed=seed)) for seed in range(4)]
    # Plain repetitions have footprint 1: the explicit worker request wins,
    # exactly as it did before sharding existed.
    assert runner._budget_cap(misses) == 4
    assert runner._effective_workers(misses) == 4


def test_single_over_wide_task_degrades_to_serial(monkeypatch):
    from repro.sim.shard import PROCESS_BUDGET_ENV

    monkeypatch.setenv(PROCESS_BUDGET_ENV, "2")
    runner = ExperimentRunner(workers=8, cache=None)
    misses = [_miss(_sharded_config(shard_workers=8)) for _ in range(4)]
    # footprint 8 > budget 2: workers * footprint can never fit, so the
    # runner falls back to one worker instead of refusing to run.
    assert runner._budget_cap(misses) == 1
    assert runner._effective_workers(misses) == 1


def _inline_pool(seen: dict):
    """Stands in for ``process_pool``: records the worker count and the process
    budget it was asked under, and runs every task in this process."""

    def pool(workers):
        seen.update(workers=workers, env=os.environ.get(PROCESS_BUDGET_ENV))
        return contextlib.nullcontext(SimpleNamespace(map=map))

    return pool


def test_pool_execution_exports_a_budget_slice_to_workers(monkeypatch):
    from repro.bench import runner as runner_module

    monkeypatch.setenv(PROCESS_BUDGET_ENV, "8")
    seen = {}
    monkeypatch.setattr(runner_module, "process_pool", _inline_pool(seen))
    runner = ExperimentRunner(workers=2, cache=None)
    misses = [_miss(tiny_config(seed=seed)) for seed in range(2)]
    list(runner._execute(misses, workers=2))
    # The pool saw budget // workers = 4, and the parent's value came back.
    assert seen == {"workers": 2, "env": "4"}
    assert os.environ.get(PROCESS_BUDGET_ENV) == "8"


def test_budget_env_is_removed_after_execution_when_previously_unset(monkeypatch):
    from repro.bench import runner as runner_module

    monkeypatch.delenv(PROCESS_BUDGET_ENV, raising=False)
    seen = {}
    monkeypatch.setattr(runner_module, "process_pool", _inline_pool(seen))
    runner = ExperimentRunner(workers=2, cache=None)
    misses = [_miss(tiny_config(seed=seed)) for seed in range(2)]
    list(runner._execute(misses, workers=2))
    assert seen["env"] is not None
    assert PROCESS_BUDGET_ENV not in os.environ


#: pool -> (a script whose pool worker kills itself, what it must print).
KILLED_WORKERS = {
    # A batch of two cells: the first cell's runner worker dies.
    "runner": (
        """
import os, signal
from repro.bench import runner
from test_bench_runner import tiny_config
execute = runner._execute_task

def killed(config, repetition, cell_hash):
    if config.seed == 1:
        os.kill(os.getpid(), signal.SIGKILL)
    return execute(config, repetition, cell_hash)

runner._execute_task = killed
runner.ExperimentRunner(workers=2).run_many([tiny_config(seed=1), tiny_config(seed=2)])
""",
        f"a runner worker process died: cell {tiny_config(seed=1).cell_hash()[:16]} ",
    ),
    # Four channels on two processes: the pool's worker dies on channel 1.
    "shards": (
        """
import os, signal
from repro.channels import network
from repro.sim.shard import ExecutionConfig
from test_sharded_execution import experiment, run_cell
simulate = network.simulate_group_to_file

def killed(spec, args, path):
    if spec.channels == (1,):
        os.kill(os.getpid(), signal.SIGKILL)
    return simulate(spec, args, path)

network.simulate_group_to_file = killed
run_cell(experiment(ExecutionConfig(shard_workers=2)))
""",
        "the shard worker process of channel(s) 1 died before returning its shard",
    ),
}


@pytest.mark.parametrize("pool", list(KILLED_WORKERS))
def test_a_killed_pool_worker_is_an_error_naming_what_it_ran(pool):
    # In a fresh interpreter, under a deadline: a pool that waits for a dead
    # worker forever fails this test instead of hanging the suite.
    script, message = KILLED_WORKERS[pool]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    completed = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60
    )
    error = completed.stderr.strip().splitlines()[-1]
    assert error.startswith(f"repro.errors.SimulationError: {message}"), completed.stderr


def test_sharded_repetitions_run_under_the_parallel_runner():
    config = _sharded_config(shard_workers=0)
    parallel = ExperimentRunner(workers=2, cache=None).run(config)
    serial = ExperimentRunner(workers=1, cache=None).run(config)
    # Whole analyses: every record scalar, every metrics field, per
    # channel too (tests/test_runner_results.py holds the boundary contract).
    assert parallel.analyses[0] == serial.analyses[0]
    assert parallel.analyses[0].metrics.submitted_transactions > 0
    assert parallel.analyses[0].record.execution == "sharded"
