"""Channel topology: partitioning the key space across channels.

Channels are Fabric's mechanism for scaling throughput and isolating
workloads: each channel has its own ledger, world state and ordering service.
:class:`ChannelTopology` describes how the *entity-index space* of a workload
(patients, voters, genChain keys, ... — whatever the chaincode's
``index_chooser`` selects over) is partitioned into per-channel shards:

* ``hash`` — a stable multiplicative hash of the entity index.  Adjacent
  Zipfian ranks land on different channels, so the hottest keys are spread
  evenly and channel load is balanced.
* ``range`` — contiguous shards (channel 0 owns the first ``1/N`` of the
  index space, and so on).  Under a Zipfian workload the hot ranks are the
  low indices, so channel 0 inherits the hot end of the key space.
* ``hot`` — an explicit hot-channel placement: channel 0 owns the hottest
  :data:`HOT_SHARE` of the index space outright and the remaining channels split
  the cold tail round-robin.  This models the common anti-pattern of putting
  one popular application on its own channel.

:class:`ShardedKeyDistribution` adapts a shard to the
:class:`~repro.workload.distributions.KeyDistribution` protocol so a
channel's :class:`~repro.workload.generator.WorkloadGenerator` draws primary
entities from its shard only (with the base distribution renormalized over
the shard by rejection sampling).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.network.config import PLACEMENT_POLICIES
from repro.workload.distributions import KeyDistribution, SamplerDraws, UniformDistribution

#: Knuth's multiplicative hash constant; spreads consecutive indices.
_HASH_MULTIPLIER = 2654435761
_HASH_MASK = (1 << 32) - 1
#: Fraction of the (hottest) index space channel 0 owns under ``hot`` placement.
HOT_SHARE = 0.5


@dataclass(frozen=True)
class ChannelTopology:
    """A static partition of the entity-index space into ``channels`` shards."""

    channels: int
    placement: str = "hash"

    def __post_init__(self) -> None:
        if self.channels < 1:
            raise ConfigurationError(f"need at least one channel, got {self.channels}")
        if self.placement not in PLACEMENT_POLICIES:
            known = ", ".join(sorted(PLACEMENT_POLICIES))
            raise ConfigurationError(
                f"unknown placement policy {self.placement!r}; known policies: {known}"
            )

    # ------------------------------------------------------------- placement
    def channel_of_index(self, index: int, population: int) -> int:
        """The channel owning entity ``index`` of a population of ``population``."""
        if not 0 <= index < population:
            raise ConfigurationError(
                f"entity index {index} is outside the population [0, {population})"
            )
        if self.channels == 1:
            return 0
        if self.placement == "range":
            return min(self.channels - 1, index * self.channels // population)
        if self.placement == "hot":
            hot_count = max(1, int(population * HOT_SHARE))
            if index < hot_count:
                return 0
            return 1 + (index - hot_count) % (self.channels - 1)
        return ((index + 1) * _HASH_MULTIPLIER & _HASH_MASK) % self.channels

    @lru_cache(maxsize=8)
    def owners(self, population: int) -> Sequence[int]:
        """:meth:`channel_of_index` of every index, asked once per process: equal
        topologies share the memo, and every channel's draws read the one table."""
        table = [self.channel_of_index(index, population) for index in range(population)]
        return bytes(table) if self.channels <= 256 else tuple(table)

    def shard_indices(self, channel: int, population: int) -> List[int]:
        """All entity indices owned by ``channel`` (small populations only)."""
        self._check_channel(channel)
        return [index for index, owner in enumerate(self.owners(population)) if owner == channel]

    # ---------------------------------------------------------------- shares
    def arrival_shares(self) -> Tuple[float, ...]:
        """Fraction of the total arrival rate each channel receives.

        Traffic is split proportionally to the fraction of the key space each
        channel owns: ``1/N`` under ``hash`` and ``range`` placement,
        :data:`HOT_SHARE` for the hot channel (and the rest split evenly) under
        ``hot`` placement.
        """
        if self.channels == 1:
            return (1.0,)
        if self.placement == "hot":
            cold = (1.0 - HOT_SHARE) / (self.channels - 1)
            return (HOT_SHARE,) + (cold,) * (self.channels - 1)
        return (1.0 / self.channels,) * self.channels

    def _check_channel(self, channel: int) -> None:
        if not 0 <= channel < self.channels:
            raise ConfigurationError(
                f"channel {channel} is outside the topology [0, {self.channels})"
            )


class ShardedKeyDistribution(SamplerDraws):
    """A :class:`KeyDistribution` restricted to one channel's shard.

    Samples the base distribution until the drawn index belongs to the shard,
    which renormalizes the base distribution over the shard exactly.  When a
    shard owns (almost) no index of a population — possible for tiny
    populations under ``range`` placement — the draw falls back to the base
    distribution after ``max_tries`` rejections rather than looping forever.

    Which indices the shard owns is read off :meth:`ChannelTopology.owners`,
    the one table all channels share; the sole channel of a topology owns every
    index, so its draw *is* the base distribution's.
    """

    def __init__(
        self,
        topology: ChannelTopology,
        channel: int,
        base: Optional[KeyDistribution] = None,
        max_tries: int = 256,
    ) -> None:
        topology._check_channel(channel)
        if max_tries < 1:
            raise ConfigurationError(f"max_tries must be >= 1, got {max_tries}")
        self.topology = topology
        self.channel = channel
        self.base = base or UniformDistribution()
        self.max_tries = max_tries

    def sampler(self, rng: random.Random, population: int) -> Callable[[], int]:
        """The rejection loop over the base distribution's draw."""
        base_draw = self.base.sampler(rng, population)
        if self.topology.channels == 1:
            return base_draw
        owners = self.topology.owners(population)
        channel = self.channel
        max_tries = self.max_tries

        def draw() -> int:
            for _ in range(max_tries):
                index = base_draw()
                if owners[index] == channel:
                    return index
            return base_draw()

        return draw

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ShardedKeyDistribution(channel={self.channel}, "
            f"placement={self.topology.placement!r}, base={self.base!r})"
        )

