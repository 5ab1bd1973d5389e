"""The one shared build path for every deployment.

Every caller that wants a network — the experiment harness, the CLI, the
examples, the tests — goes through :func:`build_network`, which takes the
chaincode and the variant by their registry names (plain data, which a shard
worker receives as it is) and returns the one deployment class,
:class:`~repro.channels.network.MultiChannelNetwork`, each channel wired to
its own :class:`~repro.lifecycle.events.LifecycleBus` and (when the
configuration enables it) the retry subsystem, with its
``run(mix, arrival_rate, duration, ...) -> RunRecord`` surface.

How many channels there are and how they *execute* — one shared clock or
independent shards in worker processes — is not a build decision: the
deployment derives its plan from ``config`` itself (see
:func:`repro.channels.network.plan_groups`).  A single-channel configuration
is the shared-clock plan with one group of one channel.
"""

from __future__ import annotations

from typing import Any, Mapping, Optional

from repro.network.config import NetworkConfig


def build_network(
    config: NetworkConfig,
    chaincode: str,
    variant: str,
    chaincode_kwargs: Optional[Mapping[str, Any]] = None,
    seed: int = 7,
    record_chain: bool = False,
):
    """Build the deployment described by ``config`` — the shared build path.

    Every channel slice, in this process or a shard worker, builds its own
    registered ``chaincode`` (with ``chaincode_kwargs``) and ``variant``.
    ``record_chain`` keeps the run's chain for a consumer that reads it.
    Returns the one :class:`~repro.channels.network.MultiChannelNetwork`.
    """
    from repro.channels.network import MultiChannelNetwork

    return MultiChannelNetwork(
        config, chaincode, variant, chaincode_kwargs, seed, record_chain=record_chain
    )
