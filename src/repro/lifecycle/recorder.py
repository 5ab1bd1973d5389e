"""The chain recorder: keeps a channel's attempts for a consumer that reads them.

A run's metrics come from its :mod:`~repro.lifecycle.tally`, so by default
no transaction outlives its last event.  Reading the chain itself — the
committed-history export (``repro run --history-out``), the canonical
fingerprint of :mod:`repro.core.fingerprint`, the failure oracle of the test
suite — needs every attempt kept, as the paper's post-experiment parse did.
A :class:`ChainRecorder` on the channel's bus keeps them, and the channel's
ledger keeps its blocks (``Ledger(keep_blocks=True)``); the record then
carries them as a :class:`~repro.network.network.Chain`.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

from repro.ledger.block import Transaction
from repro.lifecycle.events import LifecycleBus, LifecycleEventType


class ChainRecorder:
    """Every attempt of one channel, its early aborts and its local answers."""

    def __init__(self, bus: LifecycleBus) -> None:
        #: Attempts in submission order.
        self.submitted: List[Transaction] = []
        #: Attempts that ended without reaching a block, in abort order.
        self.early_aborted: List[Transaction] = []
        #: Read-only attempts the client answered itself, in answer order.
        self.read_only_skipped: List[Transaction] = []
        bus.handle(LifecycleEventType.SUBMITTED, self.submitted.append)
        bus.handle(LifecycleEventType.COMMITTED, self._on_committed)
        bus.handle(LifecycleEventType.ABORTED, self._on_aborted)

    def _on_committed(self, tx: Transaction) -> None:
        if tx.validation_code is None:
            self.read_only_skipped.append(tx)

    def _on_aborted(self, tx: Transaction) -> None:
        if tx.block_number is None:
            self.early_aborted.append(tx)

    def in_client_order(
        self, clients: Sequence[str]
    ) -> Tuple[List[Transaction], List[Transaction]]:
        """``(transactions, read_only_skipped)`` as the record lists them.

        Transactions by submission time, then client order; local answers
        client by client — the order of each client's own list.
        """
        rank = {name: index for index, name in enumerate(clients)}
        transactions = sorted(
            self.submitted, key=lambda tx: (tx.submitted_at, rank[tx.client_name])
        )
        skipped = sorted(self.read_only_skipped, key=lambda tx: rank[tx.client_name])
        return transactions, skipped
