"""Parallel experiment runner with deterministic seeding and result caching.

The figure-scale reproductions are sweeps — block size × arrival rate ×
variant × skew, each cell repeated several times — and every cell/repetition
is an independent simulation.  :class:`ExperimentRunner` exploits that: it
flattens a batch of :class:`~repro.bench.harness.ExperimentConfig`s (or a
declarative :class:`SweepPlan`) into ``(config, repetition)`` tasks, fans the
tasks out across a ``multiprocessing`` pool, and reassembles the analyses into
:class:`~repro.bench.harness.ExperimentResult`s in deterministic order.

What the runner yields — computed in a worker or in process, deduplicated or
served from the cache — is the cell's *detached* analysis
(:meth:`~repro.core.analyzer.ExperimentAnalysis.detached`): metrics, counts,
configuration and reports, about 4 KB pickled.  The ledger and the
transactions stay in the process that simulated the cell, and reading them
off a runner result raises :class:`~repro.errors.AnalysisError`; whoever needs
the chain calls :func:`~repro.bench.harness.run_repetition`.

Three properties make this safe and fast:

* **Determinism** — repetition ``k`` of a configuration is seeded with
  :func:`~repro.bench.harness.repetition_seed`, a hash of the configuration's
  content hash and ``k``.  A repetition's result therefore depends only on
  ``(config, k)``; parallel execution is bit-identical to serial execution.
* **Content-addressed caching** — a :class:`ResultCache` stores each
  repetition's detached :class:`~repro.core.analyzer.ExperimentAnalysis` under
  ``(cell_hash, repetition)``, in memory and optionally on disk.  Because
  results are deterministic, serving a cached analysis is semantically
  identical to re-running the simulation, so repeated figure regeneration
  skips already-run cells.  Any change to the configuration changes the hash
  and invalidates the entry.
* **Observability** — :class:`RunnerStats` records cache hits/misses, executed
  tasks, worker count and wall-clock per batch, and an optional progress hook
  receives a :class:`ProgressEvent` after every completed task (see
  :func:`repro.bench.reporting.format_progress`).

Typical usage::

    from repro.bench.runner import ExperimentRunner, SweepPlan

    runner = ExperimentRunner(workers=4)
    outcome = runner.run_sweep(SweepPlan(base=config, block_sizes=(10, 50, 100)))
    for cell, result in zip(outcome.cells, outcome.results):
        print(cell.block_size, result.failure_pct)
    print(outcome.stats.describe())
"""

from __future__ import annotations

import itertools
import multiprocessing
import os
import pickle
import tempfile
import time
from dataclasses import dataclass, fields
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.bench.harness import (
    RESULT_COLUMNS,
    ExperimentConfig,
    ExperimentResult,
    run_repetition,
)
from repro.channels.network import plan_groups
from repro.core.analyzer import ExperimentAnalysis
from repro.errors import ConfigurationError
from repro.sim.shard import PROCESS_BUDGET_ENV, process_budget, resolve_worker_count

#: A progress hook receives a :class:`ProgressEvent` after every finished task.
ProgressHook = Callable[["ProgressEvent"], None]


# ----------------------------------------------------------------------- stats
@dataclass
class RunnerStats:
    """What one batch (``run_many``/``run_sweep`` call) did and how long it took."""

    tasks_total: int = 0
    tasks_run: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: Tasks that duplicated another cell in the same batch and shared its run.
    deduplicated: int = 0
    #: On-disk cache entries that could not be loaded (truncated, corrupted,
    #: not an analysis); each was recomputed and overwritten like a miss.
    cache_corrupt: int = 0
    #: Bytes of on-disk cache entries the batch read and wrote.
    cache_bytes: int = 0
    workers: int = 1
    wall_clock: float = 0.0

    def describe(self) -> str:
        """One-line human readable summary of the batch."""
        deduplicated = f", {self.deduplicated} deduplicated" if self.deduplicated else ""
        corrupt = f", {self.cache_corrupt} corrupt" if self.cache_corrupt else ""
        return (
            f"{self.tasks_total} repetition(s): {self.cache_hits} cached{corrupt}{deduplicated}, "
            f"{self.tasks_run} executed with {self.workers} worker(s) "
            f"in {self.wall_clock:.2f}s"
        )


@dataclass(frozen=True)
class ProgressEvent:
    """A snapshot of batch progress, passed to the runner's progress hook."""

    completed: int
    total: int
    cache_hits: int
    elapsed: float

    @property
    def remaining(self) -> int:
        """Tasks not yet finished."""
        return self.total - self.completed

    @property
    def eta(self) -> float:
        """Estimated seconds left, extrapolated from the mean task time."""
        if self.completed == 0:
            return 0.0
        return self.elapsed / self.completed * self.remaining


# ----------------------------------------------------------------------- cache
class ResultCache:
    """Content-addressed cache of per-repetition experiment analyses.

    Keys are ``(cell_hash, repetition)`` where ``cell_hash`` is
    :meth:`ExperimentConfig.cell_hash` — so any change to a configuration's
    content yields a different key and a guaranteed miss.  An entry is the
    detached analysis, a few KB whatever the cell simulated.  Entries live in
    memory (least-recently-used entries are evicted beyond ``max_entries``;
    pass ``None`` for unbounded); when ``directory`` is given they are also
    pickled to disk (atomically, via a temporary file of the writer's own),
    survive across processes and are never evicted — which is what lets a
    second ``repro sweep`` invocation skip the whole grid.  An on-disk entry
    that cannot be loaded back as an analysis of today's shape is a miss,
    counted in ``corrupt_entries``: the cell is recomputed and the entry
    overwritten.
    """

    def __init__(
        self,
        directory: Optional[os.PathLike] = None,
        max_entries: Optional[int] = None,
    ) -> None:
        if max_entries is not None and max_entries < 1:
            raise ConfigurationError(f"max_entries must be >= 1, got {max_entries}")
        self._memory: Dict[Tuple[str, int], ExperimentAnalysis] = {}
        self.max_entries = max_entries
        self.directory = Path(directory) if directory is not None else None
        #: On-disk entries found unreadable so far (see the class docstring).
        self.corrupt_entries = 0
        #: Bytes of on-disk entries read and written so far.
        self.disk_bytes = 0
        if self.directory is not None:
            self.directory.mkdir(parents=True, exist_ok=True)

    def _path(self, cell_hash: str, repetition: int) -> Path:
        return self.directory / f"{cell_hash}-r{repetition}.pkl"

    def get(self, cell_hash: str, repetition: int) -> Optional[ExperimentAnalysis]:
        """The cached analysis for ``(cell_hash, repetition)``, or ``None``."""
        key = (cell_hash, repetition)
        if key in self._memory:
            analysis = self._memory.pop(key)
            self._memory[key] = analysis  # refresh LRU position
            return analysis
        if self.directory is not None:
            try:
                with self._path(cell_hash, repetition).open("rb") as handle:
                    analysis = pickle.load(handle)
                    self.disk_bytes += handle.tell()
            except FileNotFoundError:
                return None
            except Exception:
                # Damaged bytes make the unpickler raise nearly anything
                # (ValueError, TypeError, IndexError, MemoryError, ...).
                analysis = None
            # Cell hashes do not cover code, so an entry outlives the classes
            # it pickled: one written by an earlier ExperimentAnalysis loads
            # without the fields that class did not have.
            if not isinstance(analysis, ExperimentAnalysis) or any(
                field.name not in vars(analysis) for field in fields(ExperimentAnalysis)
            ):
                self.corrupt_entries += 1
                return None
            self._remember(key, analysis)
            return analysis
        return None

    def _remember(self, key: Tuple[str, int], analysis: ExperimentAnalysis) -> None:
        self._memory.pop(key, None)
        self._memory[key] = analysis
        while self.max_entries is not None and len(self._memory) > self.max_entries:
            self._memory.pop(next(iter(self._memory)))

    def put(self, cell_hash: str, repetition: int, analysis: ExperimentAnalysis) -> None:
        """Store ``analysis``, detached, under ``(cell_hash, repetition)``."""
        analysis = analysis.detached()
        self._remember((cell_hash, repetition), analysis)
        if self.directory is not None:
            path = self._path(cell_hash, repetition)
            # A name of this writer's own: two processes storing the same
            # cell must not interleave their bytes in one temporary file.
            descriptor, temporary = tempfile.mkstemp(
                dir=self.directory, prefix=path.stem + ".", suffix=".tmp"
            )
            try:
                with os.fdopen(descriptor, "wb") as handle:
                    pickle.dump(analysis, handle, protocol=pickle.HIGHEST_PROTOCOL)
                    self.disk_bytes += handle.tell()
                os.replace(temporary, path)
            except BaseException:
                os.unlink(temporary)
                raise

    def clear(self) -> None:
        """Drop every in-memory entry and delete on-disk entries."""
        self._memory.clear()
        if self.directory is not None:
            for path in self.directory.glob("*.pkl"):
                path.unlink(missing_ok=True)

    def __len__(self) -> int:
        return len(self._memory)


# ------------------------------------------------------------------ sweep plan
@dataclass(frozen=True)
class SweepCell:
    """One cell of a sweep grid: the axis values plus the derived config."""

    variant: str
    block_size: int
    arrival_rate: float
    zipf_skew: float
    config: ExperimentConfig


@dataclass
class SweepPlan:
    """A declarative grid over the paper's sweep axes.

    Every axis left at ``None`` is pinned to the base configuration's value; a
    provided axis sweeps over its values.  An explicitly empty axis is a
    configuration error (it would describe an empty grid).  ``cells()``
    expands the Cartesian product in deterministic order (variant-major,
    skew-minor).
    """

    base: ExperimentConfig
    variants: Optional[Sequence[str]] = None
    block_sizes: Optional[Sequence[int]] = None
    arrival_rates: Optional[Sequence[float]] = None
    zipf_skews: Optional[Sequence[float]] = None

    def _axis(self, name: str, values: Optional[Sequence], fallback) -> List:
        if values is None:
            return [fallback]
        values = list(values)
        if not values:
            raise ConfigurationError(f"sweep axis {name!r} is empty — the grid has no cells")
        return values

    def cells(self) -> List[SweepCell]:
        """Expand the grid into one :class:`SweepCell` per combination."""
        variants = self._axis("variants", self.variants, self.base.variant)
        block_sizes = self._axis("block_sizes", self.block_sizes, self.base.network.block_size)
        rates = self._axis("arrival_rates", self.arrival_rates, self.base.arrival_rate)
        skews = self._axis("zipf_skews", self.zipf_skews, self.base.zipf_skew)
        cells: List[SweepCell] = []
        for variant, block_size, rate, skew in itertools.product(
            variants, block_sizes, rates, skews
        ):
            config = self.base.with_overrides(
                variant=variant,
                network=self.base.network.copy(block_size=block_size),
                arrival_rate=float(rate),
                zipf_skew=float(skew),
            )
            cells.append(
                SweepCell(
                    variant=variant,
                    block_size=block_size,
                    arrival_rate=float(rate),
                    zipf_skew=float(skew),
                    config=config,
                )
            )
        return cells


@dataclass
class SweepOutcome:
    """The results of a sweep: one :class:`ExperimentResult` per grid cell."""

    cells: List[SweepCell]
    results: List[ExperimentResult]
    stats: RunnerStats

    def rows(self) -> List[Tuple]:
        """Table rows (one per cell) matching :data:`SWEEP_HEADERS`."""
        return [
            tuple(RESULT_COLUMNS[header](result) for header in SWEEP_HEADERS)
            for result in self.results
        ]


#: Column headers matching :meth:`SweepOutcome.rows`.
SWEEP_HEADERS = (
    "variant",
    "block_size",
    "arrival_rate",
    "zipf_skew",
    "failures_pct",
    "endorsement_pct",
    "mvcc_pct",
    "latency_s",
    "committed_tps",
)


# ----------------------------------------------------------------------- tasks
@dataclass(frozen=True)
class _Task:
    """One repetition of one configuration in a batch."""

    config_index: int
    repetition: int
    config: ExperimentConfig
    cell_hash: str


def _execute_task(config: ExperimentConfig, repetition: int, cell_hash: str) -> ExperimentAnalysis:
    """Worker entry point: run one repetition (module-level, so it pickles).

    :func:`run_repetition` enters the collector scope itself, so the worker
    needs none of its own.  The one detaching point of the runner: the
    attached record dies with this frame.
    """
    return run_repetition(config, repetition, cell_hash=cell_hash).detached()


# ---------------------------------------------------------------------- runner
class ExperimentRunner:
    """Runs batches of experiments across a worker pool with result caching.

    Parameters
    ----------
    workers:
        Worker processes for cache-miss repetitions.  ``1`` (the default) runs
        everything in-process; ``None`` uses ``os.cpu_count()``.
    cache:
        A :class:`ResultCache`, or ``None`` to disable caching.
    progress:
        Optional hook called with a :class:`ProgressEvent` after each task.

    ``stats`` always describes the most recent batch.  Configurations that
    cannot be pickled (e.g. a lambda ``chaincode_factory``) are detected up
    front and the batch transparently falls back to in-process execution, so
    the runner never changes *what* runs — only where.
    """

    def __init__(
        self,
        workers: Optional[int] = 1,
        cache: Optional[ResultCache] = None,
        progress: Optional[ProgressHook] = None,
    ) -> None:
        if workers is not None and workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {workers}")
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        self.cache = cache
        self.progress = progress
        self.stats = RunnerStats()

    # ------------------------------------------------------------- public API
    def run(self, config: ExperimentConfig) -> ExperimentResult:
        """Run one experiment (all repetitions) through the pool and cache."""
        return self.run_many([config])[0]

    def run_many(self, configs: Sequence[ExperimentConfig]) -> List[ExperimentResult]:
        """Run a batch of experiments and return results in input order.

        All ``config × repetition`` tasks are flattened into one pool
        submission, so parallelism spans the whole batch rather than one
        configuration at a time.
        """
        started = time.perf_counter()
        for config in configs:
            config.validate()
        tasks: List[_Task] = []
        for config_index, config in enumerate(configs):
            cell_hash = config.cell_hash()
            for repetition in range(config.repetitions):
                tasks.append(_Task(config_index, repetition, config, cell_hash))

        analyses: Dict[Tuple[int, int], ExperimentAnalysis] = {}
        misses: List[_Task] = []
        shared: Dict[Tuple[str, int], List[_Task]] = {}
        cache_hits = 0
        deduplicated = 0
        corrupt_before = self.cache.corrupt_entries if self.cache is not None else 0
        bytes_before = self.cache.disk_bytes if self.cache is not None else 0
        for task in tasks:
            cached = (
                self.cache.get(task.cell_hash, task.repetition) if self.cache is not None else None
            )
            if cached is not None:
                analyses[(task.config_index, task.repetition)] = cached
                cache_hits += 1
                continue
            key = (task.cell_hash, task.repetition)
            if key in shared:
                # A duplicate cell in the batch: run once, share the analysis.
                shared[key].append(task)
                deduplicated += 1
            else:
                shared[key] = []
                misses.append(task)

        self.stats = RunnerStats(
            tasks_total=len(tasks),
            cache_hits=cache_hits,
            cache_misses=len(misses),
            deduplicated=deduplicated,
            cache_corrupt=(
                self.cache.corrupt_entries - corrupt_before if self.cache is not None else 0
            ),
            workers=self._effective_workers(misses),
        )
        self._report_progress(cache_hits, len(tasks), cache_hits, started)
        completed = cache_hits
        for task, analysis in self._execute(misses, self.stats.workers):
            if self.cache is not None:
                self.cache.put(task.cell_hash, task.repetition, analysis)
            for target in [task, *shared[(task.cell_hash, task.repetition)]]:
                analyses[(target.config_index, target.repetition)] = analysis
                completed += 1
            self.stats.tasks_run += 1
            self._report_progress(completed, len(tasks), cache_hits, started)

        if self.cache is not None:
            self.stats.cache_bytes = self.cache.disk_bytes - bytes_before
        self.stats.wall_clock = time.perf_counter() - started
        return [
            ExperimentResult(
                config=config,
                analyses=[
                    analyses[(config_index, repetition)]
                    for repetition in range(config.repetitions)
                ],
            )
            for config_index, config in enumerate(configs)
        ]

    def run_sweep(self, plan: SweepPlan) -> SweepOutcome:
        """Expand ``plan`` into cells, run them all, and bundle the outcome."""
        cells = plan.cells()
        results = self.run_many([cell.config for cell in cells])
        return SweepOutcome(cells=cells, results=results, stats=self.stats)

    # -------------------------------------------------------------- internals
    def _effective_workers(self, misses: Sequence[_Task]) -> int:
        if self.workers <= 1 or len(misses) <= 1:
            return 1
        try:
            pickle.dumps([(task.config, task.repetition) for task in misses])
        except Exception:
            return 1
        return min(self.workers, len(misses), self._budget_cap(misses))

    @staticmethod
    def _task_footprint(task: _Task) -> int:
        """Processes that simulate one repetition of ``task``, itself included."""
        network = task.config.network
        mode, groups = plan_groups(network)
        if mode != "sharded":
            return 1
        return resolve_worker_count(network.execution.shard_workers, len(groups))

    def _budget_cap(self, misses: Sequence[_Task]) -> int:
        """Runner workers allowed under the shared process budget.

        Runner workers multiply with the per-repetition shard workers
        (:mod:`repro.sim.shard`), so when any task fans out the pool is sized
        such that ``workers * max(task footprint) <= process_budget()``.  At
        least one worker always runs — a single over-wide task degrades to
        serial execution rather than failing.  Batches of plain (footprint 1)
        tasks are never capped: an explicitly requested worker count is
        honored even on narrow machines, exactly as before sharding existed.
        """
        footprint = max((self._task_footprint(task) for task in misses), default=1)
        if footprint <= 1:
            return self.workers
        return max(1, process_budget() // footprint)

    def _execute(self, misses: Sequence[_Task], workers: int):
        """Yield ``(task, analysis)`` pairs in task order."""
        if workers <= 1:
            for task in misses:
                yield task, _execute_task(task.config, task.repetition, task.cell_hash)
            return
        arguments = [(task.config, task.repetition, task.cell_hash) for task in misses]
        # Each pool worker inherits its slice of the process budget, so a
        # sharded repetition inside a worker cannot fan out past the global
        # cap (workers × shard processes <= budget).
        budget = process_budget()
        previous = os.environ.get(PROCESS_BUDGET_ENV)
        os.environ[PROCESS_BUDGET_ENV] = str(max(1, budget // workers))
        try:
            with multiprocessing.Pool(processes=workers) as pool:
                for task, analysis in zip(misses, pool.imap(_execute_star, arguments)):
                    yield task, analysis
        finally:
            if previous is None:
                os.environ.pop(PROCESS_BUDGET_ENV, None)
            else:
                os.environ[PROCESS_BUDGET_ENV] = previous

    def _report_progress(self, completed: int, total: int, cache_hits: int, started: float) -> None:
        if self.progress is None:
            return
        self.progress(
            ProgressEvent(
                completed=completed,
                total=total,
                cache_hits=cache_hits,
                elapsed=time.perf_counter() - started,
            )
        )


def _execute_star(arguments: Tuple[ExperimentConfig, int, str]) -> ExperimentAnalysis:
    """Unpack helper for ``Pool.imap`` (which passes a single argument)."""
    return _execute_task(*arguments)


# -------------------------------------------------------------- default runner
_default_runner: Optional[ExperimentRunner] = None

#: In-memory LRU bound of the default runner's cache.  A detached analysis
#: pickles to 4-5 KB (one channel, measured on ``sweep-grid``), so this keeps
#: repeated figure regeneration free at well under 1 MB per session.
DEFAULT_CACHE_ENTRIES = 128

_KEEP = object()


def get_default_runner() -> ExperimentRunner:
    """The process-wide runner used by sweeps and figure functions by default.

    Serial (``workers=1``) with a shared, LRU-bounded in-memory cache: because
    repetitions are deterministic, the cache makes repeated figure
    regeneration free without changing any result.  Reconfigure it (e.g. from
    an environment variable) with :func:`configure_default_runner`.
    """
    global _default_runner
    if _default_runner is None:
        _default_runner = ExperimentRunner(
            workers=1, cache=ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
        )
    return _default_runner


def configure_default_runner(
    workers=_KEEP,
    cache=_KEEP,
    progress: Optional[ProgressHook] = None,
) -> ExperimentRunner:
    """Replace the default runner.

    Omitted parameters keep the previous runner's setting (``workers``
    defaults to serial on first use).  Pass ``cache=None`` to disable
    caching, or ``workers=None`` for one worker per CPU.
    """
    global _default_runner
    previous = _default_runner
    if workers is _KEEP:
        workers = previous.workers if previous else 1
    if cache is _KEEP:
        cache = previous.cache if previous else ResultCache(max_entries=DEFAULT_CACHE_ENTRIES)
    _default_runner = ExperimentRunner(workers=workers, cache=cache, progress=progress)
    return _default_runner
