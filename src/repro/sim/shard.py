"""Execution strategy for parallel multi-channel runs.

A multi-channel deployment whose channels never talk to each other is an
embarrassingly parallel simulation: each channel owns its ledger, state
store, ordering service and RNG stream family, so its event sequence is a
pure function of its own inputs.  *Which* channels run apart is one rule,
:func:`repro.channels.network.plan_groups` (a shard per channel, each on its
own clock, unless cross traffic, a rate cap, an observer or a recorded chain
couples them all).  This module decides *how many* processes drain them:

* :class:`ExecutionConfig` is the knob on
  :class:`~repro.network.config.NetworkConfig` counting those processes:
  ``shard_workers=1`` (default) drains every shard in this process, ``0``
  hands them to a pool of a worker per available core and ``N >= 2`` to a
  pool of at most N, while this process waits (see
  :mod:`repro.channels.network`).
* :func:`resolve_worker_count` sizes that count, and :func:`process_pool` is
  the one pool both fan-outs use — the experiment runner's cells and a run's
  shards.  Each pool worker gets a share of the cores that caps every count
  inside it: a shard worker's share is 1, so it starts no pool, and a runner
  worker's is the available cores split between the runner's workers, so a
  sharded cell in a runner worker fans out only within its slice and nested
  fan-out never simulates on more processes than the machine has cores.

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

#: In a worker of :func:`process_pool`: the most processes it may simulate on,
#: itself or a pool of its own.  0 in a process that is no pool worker.
_core_share = 0


@dataclass(frozen=True)
class ExecutionConfig:
    """How many processes drain the shards of a multi-channel run.

    The plan — a shard per channel or one shared clock — follows from what
    couples the channels alone (:func:`~repro.channels.network.plan_groups`);
    ``shard_workers`` only counts the processes that simulate: ``1`` (the
    default) drains every shard here, ``0`` means every available core, and
    ``N >= 2`` a pool of at most ``N`` workers that drains every shard while
    this process waits.  A shared-clock run is one process whatever the
    count, and inside a pool worker the count is capped by its share of the
    cores (:func:`process_pool`).
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


def _join_pool(share: int) -> None:
    global _core_share
    _core_share = share


def resolve_worker_count(requested: int, tasks: int) -> int:
    """The processes that simulate ``tasks`` independent tasks (shards or cells).

    ``requested`` follows :class:`ExecutionConfig` semantics (``0`` = every
    available core); neither it nor ``tasks`` is ever exceeded, and inside a
    pool worker neither is its share of the cores (1 in a shard worker).
    """
    limit = requested or available_cores()
    if _core_share:
        limit = min(limit, _core_share)
    return max(1, min(limit, tasks))


@contextmanager
def process_pool(workers: int, share: int = 1) -> Iterator["ProcessPoolExecutor"]:
    """A pool of ``workers`` forked processes, shut down when the block ends.

    Forked, so a worker sees what its parent registered (a test chaincode)
    without pickling it.  ``share`` caps every :func:`resolve_worker_count`
    inside a worker: at the default 1 a worker starts no pool of its own.  A
    worker that dies — killed, out of memory — breaks the pool: every result
    not yet returned raises
    :class:`~concurrent.futures.process.BrokenProcessPool` instead of never
    arriving.  Leaving the block waits for the tasks
    running; on an exception, the tasks no worker has started are cancelled
    first.
    """
    # Imported here: a run that starts no pool does not pay for the modules.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    pool = ProcessPoolExecutor(
        workers,
        mp_context=multiprocessing.get_context("fork"),
        initializer=_join_pool,
        initargs=(share,),
    )
    try:
        yield pool
    except BaseException:
        pool.shutdown(wait=True, cancel_futures=True)
        raise
    pool.shutdown(wait=True)
