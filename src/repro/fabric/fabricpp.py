"""Fabric++ (Sharma et al., SIGMOD 2019) — intra-block transaction reordering.

In the ordering phase Fabric++ builds a conflict graph over the transactions of
each block, aborts the transactions involved in cycles (a greedy approximation
of the NP-hard minimum feedback vertex set problem) and serializes the
remaining transactions so that intra-block MVCC read conflicts disappear.
Inter-block conflicts, endorsement policy failures and phantom reads are not
affected; and because the conflict graph grows with the number of
read/write-key overlaps, chaincodes with large range queries (DV, SCM) make the
reordering step very expensive (paper Section 5.2.3).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.fabric.conflictgraph import reorder_batch
from repro.fabric.variant import FabricVariantBehavior, register_variant
from repro.ledger.block import Block, ValidationCode
from repro.network.config import NetworkConfig

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.orderer import OrderingService


class FabricPlusPlus(FabricVariantBehavior):
    """Fabric++: conflict-graph based reordering inside each block."""

    name = "Fabric++"

    def prepare_block(self, block: Block, orderer: "OrderingService") -> float:
        """Reorder the block and abort cycle members; return the reordering cost."""
        serialized, aborted, edge_count = reorder_batch(block.transactions)
        for tx in aborted:
            tx.validation_code = ValidationCode.ABORTED_BY_REORDERING
            tx.abort_reason = "aborted by Fabric++ to break a conflict-graph cycle"
        # Aborted transactions stay in the block (they are recorded on the
        # ledger as failed), placed after the serialized schedule.
        block.transactions = serialized + aborted
        block.reordered = True
        timing = orderer.config.timing
        read_keys = sum(
            len(tx.rwset.reads) + sum(len(scan.reads) for scan in tx.rwset.range_reads)
            for tx in block.transactions if tx.rwset is not None
        )
        return (
            timing.reorder_per_tx * block.size
            + timing.reorder_per_edge * edge_count
            + timing.reorder_per_read_key * read_keys
        )

    def validation_service_time(self, block: Block, config: NetworkConfig) -> float:
        """Same validation cost model as Fabric 1.4.

        Transactions aborted during reordering are skipped by the base
        implementation, so blocks with many aborts validate slightly faster —
        matching the reduced validation overhead Fabric++ reports.
        """
        return super().validation_service_time(block, config)


register_variant("fabric++", FabricPlusPlus)
