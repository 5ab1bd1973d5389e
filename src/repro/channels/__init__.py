"""Multi-channel sharded Fabric networks (extension beyond the paper).

Channels are Fabric's real-world mechanism for scaling throughput and
isolating workloads.  This package partitions the key space of a workload
across N channels — each with its own ledger, state store and ordering
service — on one shared, deterministic simulation clock, and models
transactions spanning channels with a two-phase prepare/commit that can
itself abort (the ``CROSS_CHANNEL_ABORT`` failure class).

Entry points: :class:`MultiChannelNetwork` (or simply
``ExperimentConfig(network=NetworkConfig(channels=4, ...))`` through the
benchmark harness) — the one deployment class (the paper's single-channel
network is its one-channel plan), whose execution plan
(``NetworkConfig.execution``) decides whether the channels share one clock
or run as independent shards in worker processes
(``ExecutionConfig(shard_workers=0)``) —
:class:`ChannelTopology` for the placement policies and
:class:`CrossChannelCoordinator` for the 2PC model.
"""

from repro.channels.channel import ChannelGateway
from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.network import MultiChannelNetwork
from repro.channels.topology import (
    ChannelRouter,
    ChannelTopology,
    ShardedKeyDistribution,
)
from repro.core.fingerprint import EXECUTION_METADATA_FIELDS, record_fingerprint
from repro.network.network import Channel

__all__ = [
    "Channel",
    "ChannelGateway",
    "ChannelRouter",
    "ChannelTopology",
    "CrossChannelCoordinator",
    "EXECUTION_METADATA_FIELDS",
    "MultiChannelNetwork",
    "ShardedKeyDistribution",
    "record_fingerprint",
]
