"""The one shared build path for single- and multi-channel deployments.

Before the lifecycle refactor every caller that wanted a network — the
experiment harness, the CLI, the examples — re-implemented the same branch:
*channels == 1* builds a classic :class:`~repro.network.network.FabricNetwork`,
*channels > 1* builds a :class:`~repro.channels.network.MultiChannelNetwork`.
:func:`build_network` is that branch, written once.  Both deployment shapes
come back wired to a :class:`~repro.lifecycle.events.LifecycleBus` and (when
the configuration enables it) the retry subsystem, and both expose the same
``run(mix, arrival_rate, duration, ...) -> RunRecord`` surface, so callers
never need to know which shape they received.

How a multi-channel deployment *executes* — one shared clock, independent
shards in worker processes, conservative epochs — is not a build decision: the
one :class:`~repro.channels.network.MultiChannelNetwork` derives its plan from
``config.execution`` itself (see :func:`repro.channels.network.plan_groups`).
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
    Returns a :class:`~repro.network.network.FabricNetwork` for single-channel
    configurations and a :class:`~repro.channels.network.MultiChannelNetwork`
    otherwise; both expose the same ``run`` surface and carry a wired
    :class:`~repro.lifecycle.events.LifecycleBus` as ``.bus``.
    """
    from repro.channels.network import MultiChannelNetwork
    from repro.network.network import FabricNetwork

    if isinstance(variant_factory, str):
        # A partial, not a closure: the sharded path pickles the factory into
        # worker processes, and partials of a module-level function pickle.
        variant_factory = functools.partial(create_variant, variant_factory)

    if config.channels > 1:
        return MultiChannelNetwork(
            config=config.copy(),
            chaincode_factory=chaincode_factory,
            variant_factory=variant_factory,
            seed=seed,
        )
    return FabricNetwork(
        config=config.copy(),
        chaincode=chaincode_factory(),
        variant=variant_factory(),
        seed=seed,
    )
