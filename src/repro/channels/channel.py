"""The client-facing front of one channel's ordering service.

A channel itself — ledger, shared-base state store, ordering service, peers,
endorsement policy — is :class:`repro.network.network.Channel`, built by its
:class:`~repro.channels.group.ChannelGroup` on the group's clock.

The :class:`ChannelGateway` sits between a channel's clients and its ordering
service.  Every endorsed transaction passes through it: the gateway stamps the
transaction with its home channel's label and, with the configured
probability, marks it cross-channel and hands it to the
:class:`~repro.channels.coordinator.CrossChannelCoordinator` instead of the
local orderer.
"""

from __future__ import annotations

import random
from typing import TYPE_CHECKING, List, Optional

from repro.channels.topology import ChannelRouter
from repro.ledger.block import Transaction, ValidationCode
from repro.network.network import Channel
from repro.workload.spec import CrossChannelMix

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.channels.coordinator import CrossChannelCoordinator


class ChannelGateway:
    """Client-facing front of a channel's ordering service.

    Implements the same :class:`~repro.lifecycle.stages.OrderingStage` seam
    as :class:`~repro.network.orderer.OrderingService` (``submit`` /
    ``abort_early`` / ``early_aborted``), so
    :class:`~repro.network.client_node.ClientNode` needs no channel awareness.
    """

    def __init__(
        self,
        channel: Channel,
        router: ChannelRouter,
        cross_channel: CrossChannelMix,
        rng: random.Random,
        coordinator: Optional["CrossChannelCoordinator"] = None,
    ) -> None:
        # Not the slice itself: that would close a cycle (slice -> clients ->
        # gateway -> slice) and leave a finished deployment's genesis state to
        # the cyclic collector, which runs defer, instead of reference counts.
        self.label = channel.label
        self.index = channel.index
        self.orderer = channel.orderer
        self.router = router
        self.cross_channel = cross_channel
        self.rng = rng
        self.coordinator = coordinator
        self.cross_channel_submitted = 0

    @property
    def early_aborted(self) -> List[Transaction]:
        """The channel's never-reached-a-block transactions (shared list)."""
        return self.orderer.early_aborted

    def abort_early(self, tx: Transaction, code: ValidationCode, reason=None) -> None:
        """Terminally fail ``tx`` on this channel (stage-seam delegation)."""
        tx.channel = self.label
        self.orderer.abort_early(tx, code, reason)

    def submit(self, tx: Transaction) -> None:
        """Stamp the channel, maybe mark cross-channel, and route onwards."""
        tx.channel = self.label
        if (
            self.coordinator is not None  # given only to an enabled mix
            and self.rng.random() < self.cross_channel.rate
        ):
            tx.partner_channel = self.router.pick_partner(
                self.index, self.rng, self.cross_channel.partner_strategy
            )
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
