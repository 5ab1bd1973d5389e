"""The one shared build path for every deployment.

Every caller that wants a network — the experiment harness, the CLI, the
examples, the tests — goes through :func:`build_network`, which resolves the
variant and returns the one deployment class,
:class:`~repro.channels.network.MultiChannelNetwork`, wired to a
:class:`~repro.lifecycle.events.LifecycleBus` and (when the configuration
enables it) the retry subsystem, with its
``run(mix, arrival_rate, duration, ...) -> RunRecord`` surface.

How many channels there are and how they *execute* — one shared clock,
independent shards in worker processes, conservative epochs — is not a build
decision: the deployment derives its plan from ``config`` itself (see
:func:`repro.channels.network.plan_groups`).  A single-channel configuration
is the shared-clock plan with one group of one channel.
"""

from __future__ import annotations

import functools
from typing import Callable, Union

from repro.chaincode.base import Chaincode
from repro.fabric.variant import FabricVariantBehavior, create_variant
from repro.network.config import NetworkConfig


def build_network(
    config: NetworkConfig,
    chaincode_factory: Callable[[], Chaincode],
    variant_factory: Union[str, Callable[[], FabricVariantBehavior]],
    seed: int = 7,
):
    """Build the deployment described by ``config`` — the shared build path.

    ``variant_factory`` accepts either a variant name (resolved through the
    registry, a fresh behaviour per channel slice) or a zero-argument factory.
    Returns the one :class:`~repro.channels.network.MultiChannelNetwork`.
    """
    from repro.channels.network import MultiChannelNetwork

    if isinstance(variant_factory, str):
        # A partial, not a closure: the sharded path pickles the factory into
        # worker processes, and partials of a module-level function pickle.
        variant_factory = functools.partial(create_variant, variant_factory)
    return MultiChannelNetwork(
        config=config.copy(),
        chaincode_factory=chaincode_factory,
        variant_factory=variant_factory,
        seed=seed,
    )
