"""The six workloads: what each one runs and how its output is checked.

Input sizes are fixed; only the seed varies, and it reaches the simulator as
``ExperimentConfig.seed``.  All workloads use cluster C2, 100 tx/s per channel,
Zipf 1.0 and block size 100 unless stated — the paper's Table 3 defaults that
``bench/experiments.base_config`` uses for every figure.  The *why* of each
workload is in ``BENCHMARK.json`` and the README.

A workload is one *job*: a single ``run_repetition``, or for ``sweep-grid`` a
cold and a warm ``run_sweep``.  A job yields *cells* — the benchmark's unit of
operation — and a cell that raises, loses transactions, fails certification or
disagrees with its twin is a failed operation, never a fast one.

Only names exported by ``repro`` itself are imported; the sub-configs of
``NetworkConfig`` that ``repro`` does not export are taken from its fields, so
moving the modules that define them cannot break the benchmark.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro import (
    ExperimentConfig,
    ExperimentRunner,
    FaultConfig,
    NetworkConfig,
    ResultCache,
    RetryConfig,
    SweepPlan,
    run_repetition,
    synthetic_workload,
    uniform_workload,
)
_SUB_CONFIGS = {spec.name: spec.default_factory for spec in dataclasses.fields(NetworkConfig)}
CheckerConfig = _SUB_CONFIGS["checker"]
ObservabilityConfig = _SUB_CONFIGS["observability"]
ExecutionConfig = _SUB_CONFIGS["execution"]

#: Documented cap on runner workers x shard workers (see ``repro.sim.shard``).
PROCESS_BUDGET_ENV = "REPRO_PROCESS_BUDGET"

#: Simulated duration of a set-up trial: everything a job pays before its first
#: transaction, and nothing after.
SETUP_DURATION = 0.001

#: ``--smoke`` divides every simulated duration by this.
SMOKE_DIVISOR = 20.0


def max_processes() -> int:
    """No workload uses more processes than this."""
    return min(2, os.cpu_count() or 1)


@dataclass
class Cell:
    """One executed simulation cell — one operation of the benchmark."""

    name: str
    attempts: int = 0
    digest: str = ""
    failure: Optional[str] = None


@dataclass
class JobOutcome:
    """What one job produced: its cells and the timings taken inside it."""

    cells: List[Cell]
    #: Wall seconds of the ``cold`` and ``warm`` sweep passes (``sweep-grid`` only).
    timed: Dict[str, float] = field(default_factory=dict)
    #: Pickled megabytes per cached cell (``sweep-grid`` only).
    cache_mb_per_cell: float = 0.0

    @property
    def attempts(self) -> int:
        """Simulated transaction attempts submitted by the job."""
        return sum(cell.attempts for cell in self.cells if not cell.name.endswith("/warm"))

    @property
    def digest(self) -> str:
        """One digest for the job: the hash of its cells' digests, in order."""
        joined = ",".join(cell.digest for cell in self.cells if not cell.name.endswith("/warm"))
        return hashlib.sha256(joined.encode("ascii")).hexdigest()


# --------------------------------------------------------------------- checks
def sim_digest(metrics) -> str:
    """Hash of the simulated statistics a semantic change would move.

    Reported and compared, never pinned: the tier-1 goldens stay the
    bit-identity gate.
    """
    counts = sorted(
        (failure.value, count)
        for failure, count in metrics.failure_report.counts.items()
        if count
    )
    payload = [
        metrics.submitted_transactions,
        metrics.committed_transactions,
        counts,
        metrics.blocks,
        repr(metrics.average_latency),
        repr(metrics.committed_throughput),
    ]
    return hashlib.sha256(json.dumps(payload).encode("ascii")).hexdigest()


def lifecycle_failure(analysis) -> Optional[str]:
    """Why the lifecycle counts of a finished run do not balance, if they don't.

    Every submitted attempt reaches exactly one terminal event or is still in
    flight at the horizon, and whatever was ordered was validated.
    """
    counts = analysis.record.lifecycle_counts
    submitted = counts.get("submitted", 0)
    terminal = counts.get("committed", 0) + counts.get("aborted", 0)
    if submitted != analysis.metrics.submitted_transactions:
        attempts = analysis.metrics.submitted_transactions
        return f"{submitted} SUBMITTED events for {attempts} attempts"
    if terminal > submitted:
        return f"{terminal} terminal events for {submitted} attempts"
    if counts.get("ordered", 0) != counts.get("validated", 0):
        return f"{counts.get('ordered', 0)} ordered but {counts.get('validated', 0)} validated"
    return None


def check_cell(name: str, config: ExperimentConfig, analysis) -> Cell:
    """Turn one analysis into a :class:`Cell`, failed if its output is wrong."""
    cell = Cell(
        name=name,
        attempts=analysis.metrics.submitted_transactions,
        digest=sim_digest(analysis.metrics),
    )
    cell.failure = lifecycle_failure(analysis)
    if cell.failure is None and config.network.checker.enabled:
        report = analysis.record.isolation
        verdict = report.verdict if report is not None else "no isolation report"
        if not verdict.startswith("CERTIFIED"):
            cell.failure = f"isolation verdict {verdict}"
    return cell


# ------------------------------------------------------------------ workloads
def _config(seed: int, duration: float, *, variant: str = "fabric-1.4", workload=None,
            arrival_rate: float = 100.0, **network) -> ExperimentConfig:
    return ExperimentConfig(
        variant=variant,
        workload=workload or uniform_workload("EHR", patients=100),
        network=NetworkConfig(cluster="C2", **network),
        arrival_rate=arrival_rate,
        duration=duration,
        zipf_skew=1.0,
        seed=seed,
    )


def _ehr_paper(seed: int, duration: float, workers: int) -> ExperimentConfig:
    return _config(seed, duration, database="leveldb")


def _scm_fpp(seed: int, duration: float, workers: int) -> ExperimentConfig:
    return _config(
        seed,
        duration,
        variant="fabric++",
        workload=uniform_workload("SCM", units_per_lsp=[400, 400, 400, 400, 800]),
    )


def _ehr_8ch(seed: int, duration: float, workers: int) -> ExperimentConfig:
    return _config(
        seed, duration, arrival_rate=800.0, database="leveldb", channels=8, cross_channel_rate=0.0
    )


def _ehr_8ch_sharded(seed: int, duration: float, workers: int) -> ExperimentConfig:
    return _config(
        seed,
        duration,
        arrival_rate=800.0,
        database="leveldb",
        channels=8,
        cross_channel_rate=0.0,
        execution=ExecutionConfig(shard_workers=workers),
    )


def _chaos_audit(seed: int, duration: float, workers: int) -> ExperimentConfig:
    return _config(
        seed,
        duration,
        arrival_rate=400.0,
        database="leveldb",
        channels=4,
        cross_channel_rate=0.05,
        faults=FaultConfig(
            peer_crash_rate=0.01,
            endorser_slowdown_rate=0.02,
            orderer_outages=((3.0, 2.0),),
            endorsement_loss_rate=0.01,
        ),
        retry=RetryConfig(policy="jittered", max_retries=3),
        observability=ObservabilityConfig(trace=True, metrics=True),
        checker=CheckerConfig(enabled=True),
    )


def _sweep_base(seed: int, duration: float, workers: int) -> ExperimentConfig:
    return _config(
        seed,
        duration,
        workload=synthetic_workload("UH", include_range=False, num_keys=20000),
    )


def _run_cell(spec: "Workload", config: ExperimentConfig, repetition: int, workers: int,
              scratch: Path) -> JobOutcome:
    analysis = run_repetition(config, repetition)
    return JobOutcome(cells=[check_cell(spec.name, config, analysis)])


def _run_sweep(spec: "Workload", config: ExperimentConfig, repetition: int, workers: int,
               scratch: Path) -> JobOutcome:
    """A cold pass into an empty cache directory, then a warm pass with a fresh runner.

    Always repetition 0 of each cell (``one_input``): ``repetition`` is not used.
    """
    plan = SweepPlan(
        base=config,
        variants=("fabric-1.4", "fabricsharp", "streamchain"),
        block_sizes=(10, 100),
        arrival_rates=(25, 100),
    )
    directory = scratch / "cache"
    passes = {}
    timed = {}
    for name in ("cold", "warm"):
        runner = ExperimentRunner(workers=workers, cache=ResultCache(directory))
        started = time.perf_counter()
        passes[name] = runner.run_sweep(plan)
        timed[name] = time.perf_counter() - started

    cells: List[Cell] = []
    cold, warm = passes["cold"], passes["warm"]
    for cell, cold_result, warm_result in zip(cold.cells, cold.results, warm.results):
        label = f"{spec.name}/{cell.variant}-b{cell.block_size}-r{cell.arrival_rate:g}"
        cold_cell = check_cell(f"{label}/cold", cell.config, cold_result.analyses[0])
        warm_cell = check_cell(f"{label}/warm", cell.config, warm_result.analyses[0])
        if warm_cell.failure is None and warm_cell.digest != cold_cell.digest:
            warm_cell.failure = "warm cell differs from its cold twin"
        cells += [cold_cell, warm_cell]
    if warm.stats.cache_hits != len(cold.cells):
        for cell in cells[1::2]:
            cell.failure = cell.failure or (
                f"warm pass hit the cache {warm.stats.cache_hits} times for {len(cold.cells)} cells"
            )
    cached_bytes = sum(path.stat().st_size for path in directory.glob("*.pkl"))
    return JobOutcome(
        cells=cells,
        timed=timed,
        cache_mb_per_cell=cached_bytes / 1e6 / max(1, len(cold.cells)),
    )


@dataclass(frozen=True)
class Workload:
    """One named workload of ``BENCHMARK.json``."""

    name: str
    duration: float
    build: Callable[[int, float, int], ExperimentConfig]
    run: Callable[["Workload", ExperimentConfig, int, int, Path], JobOutcome] = _run_cell
    #: Every trial runs the same input.  Otherwise trials run successive
    #: repetitions of the cell, so that their median averages the seed's luck out.
    one_input: bool = False
    #: Uses worker processes: its wall time means nothing on one core.
    multi_process: bool = False
    #: A traced trial keeps the worker processes and traces the parent only;
    #: otherwise it runs the whole job in process, so that all of it is traced.
    traced_with_workers: bool = False
    #: Workload whose digest this one's must equal, byte for byte.
    twin: Optional[str] = None

    def job(self, seed: int, workers: int, scratch: Path, *, repetition: int = 0,
            smoke: bool = False, setup_only: bool = False) -> JobOutcome:
        """Run the workload once: repetition ``repetition`` of the cell ``seed`` names.

        ``workers`` caps its processes.
        """
        duration = self.duration / SMOKE_DIVISOR if smoke else self.duration
        if setup_only:
            duration = SETUP_DURATION
        config = self.build(seed, duration, workers)
        return self.run(self, config, repetition, workers, scratch)


WORKLOADS: Dict[str, Workload] = {
    spec.name: spec
    for spec in (
        Workload("ehr-paper", 180.0, _ehr_paper),
        Workload("scm-fpp", 15.0, _scm_fpp),
        Workload("ehr-8ch", 15.0, _ehr_8ch),
        Workload("ehr-8ch-sharded", 15.0, _ehr_8ch_sharded, multi_process=True,
                 traced_with_workers=True, twin="ehr-8ch"),
        Workload("chaos-audit", 8.0, _chaos_audit),
        Workload("sweep-grid", 8.0, _sweep_base, run=_run_sweep, one_input=True,
                 multi_process=True),
    )
}
