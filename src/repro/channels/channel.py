"""The client-facing front of one channel's ordering service.

A channel itself — ledger, shared-base state store, ordering service, peers,
endorsement policy — is :class:`repro.network.network.Channel`, built by its
:class:`~repro.channels.group.ChannelGroup` on the group's clock.

The :class:`ChannelGateway` sits between a channel's clients and its ordering
service.  Every endorsed transaction passes through it (its client stamped it
with its home channel's label when it built it): with the configured
probability, the gateway marks it cross-channel — its partner drawn uniformly
from the coordinator's other channels, so cross traffic connects every
channel of the group to every other — and hands it to the
:class:`~repro.channels.coordinator.CrossChannelCoordinator` instead of the
local orderer.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, Optional

from repro.ledger.block import Transaction, ValidationCode
from repro.network.network import Channel

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.coordinator import CrossChannelCoordinator


class ChannelGateway:
    """Client-facing front of a channel's ordering service.

    Implements the same :class:`~repro.lifecycle.stages.OrderingStage` seam
    as :class:`~repro.network.orderer.OrderingService` (``submit`` /
    ``abort_early``), so
    :class:`~repro.network.client_node.ClientNode` needs no channel awareness.
    """

    def __init__(
        self,
        channel: Channel,
        rate: float,
        rng: random.Random,
        coordinator: Optional["CrossChannelCoordinator"] = None,
    ) -> None:
        # Not the slice itself: that would close a cycle (slice -> clients ->
        # gateway -> slice) and leave a finished deployment's genesis state to
        # the cyclic collector, which runs defer, instead of reference counts.
        self.index = channel.index
        self.orderer = channel.orderer
        #: The fraction of transactions that span a second channel.
        self.rate = rate
        self.rng = rng
        self.coordinator = coordinator
        #: The channels a cross-channel transaction of this one may span.
        self.partners = (
            []
            if coordinator is None
            else [other.index for other in coordinator.channels if other.index != self.index]
        )
        self.cross_channel_submitted = 0

    def abort_early(self, tx: Transaction, code: ValidationCode, reason=None) -> None:
        """Terminally fail ``tx`` on this channel (stage-seam delegation)."""
        self.orderer.abort_early(tx, code, reason)

    def submit(self, tx: Transaction) -> None:
        """Maybe mark ``tx`` cross-channel, and route it onwards."""
        if (
            self.coordinator is not None  # built only when some traffic crosses
            and self.rng.random() < self.rate
        ):
            tx.partner_channel = self.rng.choice(self.partners)
            self.cross_channel_submitted += 1
            partner_faults = self.coordinator.channels[tx.partner_channel].faults
            if partner_faults is not None and not partner_faults.orderer_available():
                # The partner channel is partitioned or its orderer is down:
                # the two-phase prepare cannot reach it, so the transaction
                # fails fast as an infrastructure abort (see repro.faults).
                self.orderer.abort_early(tx, ValidationCode.ORDERER_UNAVAILABLE)
                return
            self.coordinator.submit(tx, self.coordinator.channels[self.index])
            return
        self.orderer.submit(tx)
