"""Multi-channel sharded Fabric networks (extension beyond the paper).

Channels are Fabric's real-world mechanism for scaling throughput and
isolating workloads.  This package partitions the key space of a workload
across N channels — each with its own ledger, state store and ordering
service — on deterministic simulation clocks, and models transactions
spanning channels with a two-phase prepare/commit that can itself abort (the
``CROSS_CHANNEL_ABORT`` failure class).

Entry points: :class:`MultiChannelNetwork` (or simply
``ExperimentConfig(network=NetworkConfig(channels=4, ...))`` through the
benchmark harness) — the one deployment class (the paper's single-channel
network is its one-channel plan).  What couples the channels picks its plan
(:func:`~repro.channels.network.plan_groups`): channels tied together — by
cross traffic, a retry rate cap, an observer or a recorded chain — share one
clock in one group; every other channel runs on a clock of its own, drained
in this process or, with ``ExecutionConfig(shard_workers=N)``, by a pool of N
worker processes while this one waits.  Each group
(:class:`~repro.channels.group.ChannelGroup`) builds what couples its
channels: the :class:`ChannelTopology` of the placement policies, the retry
governor and the :class:`CrossChannelCoordinator` of the 2PC model.
"""

from repro.channels.channel import ChannelGateway
from repro.channels.coordinator import CrossChannelCoordinator
from repro.channels.network import MultiChannelNetwork
from repro.channels.topology import ChannelTopology, ShardedKeyDistribution
from repro.core.fingerprint import EXECUTION_METADATA_FIELDS, record_fingerprint
from repro.network.network import Channel

__all__ = [
    "Channel",
    "ChannelGateway",
    "ChannelTopology",
    "CrossChannelCoordinator",
    "EXECUTION_METADATA_FIELDS",
    "MultiChannelNetwork",
    "ShardedKeyDistribution",
    "record_fingerprint",
]
