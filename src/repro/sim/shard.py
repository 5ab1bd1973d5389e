"""Execution strategy and process budgeting for parallel multi-channel runs.

A multi-channel deployment whose channels never talk to each other is an
embarrassingly parallel simulation: each channel owns its ledger, state
store, ordering service and RNG stream family, so its event sequence is a
pure function of its own inputs.  *Which* channels run apart is one rule,
:func:`repro.channels.network.plan_groups` (a shard per channel unless cross
traffic, a rate cap or an observer couples them all).  This module decides
*how many* processes they may occupy:

* :class:`ExecutionConfig` is the knob on
  :class:`~repro.network.config.NetworkConfig` selecting the execution
  strategy: ``shard_workers=1`` (default) keeps the classic shared-clock
  path, ``0`` sizes the set of simulating processes (this one included)
  automatically and ``N >= 2`` caps it (see :mod:`repro.channels.network`).
* :func:`resolve_worker_count` / :func:`process_budget` implement the shared
  process budget: the experiment runner exports
  :data:`PROCESS_BUDGET_ENV` before fanning cells out, so runner workers ×
  shard workers never oversubscribes the machine.
* :func:`process_pool` is the one pool both fan-outs use.

The execution strategy never changes *what* a run computes — sharded
execution with ``cross_channel_rate == 0`` is bit-identical to the
shared-clock path — so :class:`ExecutionConfig` is excluded from the
experiment cell hash.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator, Optional

from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from concurrent.futures import ProcessPoolExecutor

#: Environment variable through which a parent process (the experiment
#: runner) bounds the number of processes of this process tree that
#: simulate, the one that reads it included.  Inherited by forked pool
#: workers, so nested parallelism (runner workers × shard workers) stays
#: within one machine-wide budget.
PROCESS_BUDGET_ENV = "REPRO_PROCESS_BUDGET"


@dataclass(frozen=True)
class ExecutionConfig:
    """Parallel-execution strategy of a multi-channel run.

    ``shard_workers`` counts the processes that simulate, this one included:
    ``1`` (the default) is the classic shared-clock simulation, ``0`` shards
    independent channels across an automatically sized set of processes, and
    ``N >= 2`` shards over at most ``N`` — this one and a pool of ``N - 1``
    workers.
    """

    shard_workers: int = 1

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for invalid worker counts."""
        if isinstance(self.shard_workers, bool) or not isinstance(self.shard_workers, int):
            raise ConfigurationError(
                f"shard_workers must be an integer, got {self.shard_workers!r}"
            )
        if self.shard_workers < 0:
            raise ConfigurationError(
                f"shard_workers must be >= 0 (0 = auto), got {self.shard_workers}"
            )

    def identity(self) -> Optional[dict]:
        """What this config adds to an experiment cell's identity.

        Always ``None``: sharding independent channels across worker
        processes is bit-identical to the shared-clock run (the contract the
        golden bit-identity suite pins), so where a cell executes is not part
        of what it is.
        """
        return None


def available_cores() -> int:
    """CPU cores available to this process (affinity-aware, never < 1)."""
    try:
        cores = len(os.sched_getaffinity(0))
    except (AttributeError, OSError):  # pragma: no cover - non-Linux fallback
        cores = os.cpu_count() or 1
    return max(1, cores)


def _env_budget() -> int:
    """The :data:`PROCESS_BUDGET_ENV` cap, or 0 when unset/invalid."""
    raw = os.environ.get(PROCESS_BUDGET_ENV)
    if raw is None:
        return 0
    try:
        value = int(raw)
    except ValueError:
        return 0
    return value if value >= 1 else 0


def process_budget() -> int:
    """How many simulation processes this process tree may use.

    The :data:`PROCESS_BUDGET_ENV` environment variable (set by the
    experiment runner around its pool) takes precedence; otherwise the
    machine's available cores.
    """
    return _env_budget() or available_cores()


def resolve_worker_count(requested: int, shard_count: int) -> int:
    """The processes that simulate a sharded run, this one included.

    The run's pool is one smaller: this process drains shards too.
    ``requested`` follows :class:`ExecutionConfig` semantics: ``0`` sizes the
    count from :func:`process_budget`, an explicit ``N`` is honored up to the
    shard count — except when a parent runner exported
    :data:`PROCESS_BUDGET_ENV`, which caps explicit requests too (that is the
    nested-parallelism guard).  Never exceeds ``shard_count`` and never
    returns less than 1.
    """
    if shard_count <= 1:
        return 1
    if requested == 0:
        limit = process_budget()
    else:
        limit = requested
        env_cap = _env_budget()
        if env_cap:
            limit = min(limit, env_cap)
    return max(1, min(limit, shard_count))


@contextmanager
def process_pool(workers: int) -> Iterator["ProcessPoolExecutor"]:
    """A pool of ``workers`` forked processes, shut down when the block ends.

    Forked, so a worker sees what its parent registered (a test chaincode, the
    process budget) without pickling it.  A worker that dies — killed, out of
    memory — breaks the pool: every result not yet returned raises
    :class:`~concurrent.futures.process.BrokenProcessPool` instead of never
    arriving.  Leaving the block waits for the tasks running; on an
    exception, the tasks no worker has started are cancelled first.
    """
    # Imported here: a run that starts no pool does not pay for the modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
    try:
        yield pool
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
