"""Shard planning and process budgeting for parallel multi-channel runs.

A multi-channel deployment whose channels never talk to each other is an
embarrassingly parallel simulation: each channel owns its ledger, state
store, ordering service and RNG stream family, so its event sequence is a
pure function of its own inputs.  This module decides *which* channels can
run apart and *how many* processes they may occupy:

* :func:`plan_shards` partitions the channel topology into shards by
  connected components of the cross-channel traffic graph.  With
  ``cross_channel_rate == 0`` there are no edges and every channel is its own
  shard; any positive rate couples channels through the two-phase prepare
  path (``uniform`` partners connect everything, ``neighbor`` partners form
  a ring) and coupled channels co-locate in one shard.
* :class:`ExecutionConfig` is the knob on
  :class:`~repro.network.config.NetworkConfig` selecting the execution
  strategy: ``shard_workers=1`` (default) keeps the classic shared-clock
  path, ``0`` sizes the set of simulating processes (this one included)
  automatically, ``N >= 2`` caps it, and
  ``conservative=True`` opts a fully-coupled topology into the
  epoch-synchronized engine (see :mod:`repro.channels.network`).
* :func:`resolve_worker_count` / :func:`process_budget` implement the shared
  process budget: the experiment runner exports
  :data:`PROCESS_BUDGET_ENV` before fanning cells out, so runner workers ×
  shard workers never oversubscribes the machine.

The execution strategy never changes *what* a run computes — sharded
execution with ``cross_channel_rate == 0`` is bit-identical to the
shared-clock path — so a plain :class:`ExecutionConfig` is excluded from the
experiment cell hash.  The one exception is ``conservative=True``, which has
its own (deterministic, but distinct) epoch semantics and therefore its own
cell identity.
"""

from __future__ import annotations

import dataclasses
import os
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError

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
    workers.  ``conservative=True`` additionally opts coupled topologies
    (``cross_channel_rate > 0``) into barrier-synchronized epoch execution —
    a *distinct* simulation semantics, golden-pinned separately, never
    claimed identical to the shared clock.
    """

    shard_workers: int = 1
    conservative: bool = False

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

        ``None`` unless it selects *conservative* epoch execution: sharding
        independent channels across worker processes is bit-identical to the
        shared-clock run (the contract the golden bit-identity suite pins), so
        where a cell executes is not part of what it is — but the
        conservative engine has distinct epoch semantics and therefore its
        own hash.
        """
        return dataclasses.asdict(self) if self.conservative else None


@dataclass(frozen=True)
class ShardPlan:
    """A partition of ``channels`` channel indices into independent shards.

    ``shards`` holds one sorted tuple of channel indices per shard, ordered
    by each shard's smallest member — the deterministic order every consumer
    (worker dispatch, record merge) iterates in.
    """

    channels: int
    shards: Tuple[Tuple[int, ...], ...]

    @property
    def shard_count(self) -> int:
        """Number of independent shards."""
        return len(self.shards)

    @property
    def is_partitioned(self) -> bool:
        """True when the topology splits into more than one shard."""
        return len(self.shards) > 1

    def shard_of(self, channel: int) -> int:
        """The index (in :attr:`shards` order) of the shard owning ``channel``."""
        for shard_index, members in enumerate(self.shards):
            if channel in members:
                return shard_index
        raise ConfigurationError(f"channel {channel} is outside this plan of {self.channels}")


def cross_channel_edges(
    channels: int, cross_channel_rate: float, partner_strategy: str = "uniform"
) -> List[Tuple[int, int]]:
    """The edges of the cross-channel traffic graph.

    An edge ``(i, j)`` means a transaction homed on one of the two channels
    may run the two-phase prepare against the other, i.e. their simulations
    can exchange messages.  Zero rate produces no edges; ``uniform`` partner
    selection may pair any two channels; ``neighbor`` selection forms a ring.
    Unknown strategies are treated as fully coupled — the safe direction.
    """
    if channels <= 1 or cross_channel_rate <= 0.0:
        return []
    if partner_strategy == "neighbor":
        if channels == 2:
            return [(0, 1)]
        return [(index, (index + 1) % channels) for index in range(channels)]
    return [(i, j) for i in range(channels) for j in range(i + 1, channels)]


def connected_components(
    channels: int, edges: Sequence[Tuple[int, int]]
) -> Tuple[Tuple[int, ...], ...]:
    """Connected components of the channel graph, ordered by smallest member."""
    parent = list(range(channels))

    def find(node: int) -> int:
        root = node
        while parent[root] != root:
            root = parent[root]
        while parent[node] != root:
            parent[node], node = root, parent[node]
        return root

    for left, right in edges:
        if not (0 <= left < channels and 0 <= right < channels):
            raise ConfigurationError(
                f"edge ({left}, {right}) is outside the channel range [0, {channels})"
            )
        parent[find(left)] = find(right)

    members: dict = {}
    for channel in range(channels):
        members.setdefault(find(channel), []).append(channel)
    return tuple(
        tuple(sorted(group)) for group in sorted(members.values(), key=lambda group: group[0])
    )


def plan_shards(
    channels: int, cross_channel_rate: float, partner_strategy: str = "uniform"
) -> ShardPlan:
    """Partition the channel topology into independently simulatable shards."""
    if channels < 1:
        raise ConfigurationError(f"need at least one channel, got {channels}")
    edges = cross_channel_edges(channels, cross_channel_rate, partner_strategy)
    return ShardPlan(channels=channels, shards=connected_components(channels, edges))


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
