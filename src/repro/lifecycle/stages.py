"""Stage interfaces of the transaction lifecycle pipeline.

The Execute-Order-Validate pipeline is assembled from pluggable stages; these
protocols are the seams.  :class:`~repro.network.client_node.ClientNode`
submits to any :class:`OrderingStage` — the
:class:`~repro.network.orderer.OrderingService` or the per-channel
:class:`~repro.channels.channel.ChannelGateway` that fronts it — and the
ordering service validates through any :class:`ValidationStage`.  Variant
behaviours (:class:`~repro.fabric.variant.FabricVariantBehavior`) and the
cross-channel coordinator abort transactions exclusively through
:meth:`OrderingStage.abort_early`, so every early-abort path emits the same
``ABORTED`` lifecycle event and feeds the same retry machinery.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, runtime_checkable

from repro.ledger.block import Block, Transaction, ValidationCode


@runtime_checkable
class OrderingStage(Protocol):
    """Where clients hand endorsed transactions over for ordering.

    Implementations: :class:`~repro.network.orderer.OrderingService` and the
    :class:`~repro.channels.channel.ChannelGateway` a deployment puts in front
    of it (stamps the channel and routes cross-channel transactions through
    the two-phase coordinator first).
    """

    @property
    def early_aborted(self) -> List[Transaction]:
        """Transactions that terminally failed without ever reaching a block."""
        ...

    def submit(self, tx: Transaction) -> None:
        """Accept one endorsed transaction into the ordering pipeline."""
        ...

    def abort_early(
        self,
        tx: Transaction,
        code: ValidationCode,
        reason: Optional[str] = None,
    ) -> None:
        """Terminally fail ``tx`` before it reaches a block (emits ABORTED)."""
        ...


@runtime_checkable
class ValidationStage(Protocol):
    """Canonical block validation: assigns validation codes, applies writes.

    Implementation: :class:`~repro.network.validator.BlockValidator`.
    """

    def validate_block(self, block: Block) -> None:
        """Validate every transaction of ``block`` in order."""
        ...
