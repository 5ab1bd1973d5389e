"""The append-only distributed ledger.

The ledger stores every block in order, including failed transactions (Fabric
appends the whole validated block and only flags each transaction's validity).
A channel's ledger keeps the *header* of each block — number, cut time, size
and cut reason — which is all a run's metrics and traces read; the blocks
themselves, with their transactions, are kept only when a consumer of the
chain asked for them (``keep_blocks``: the chain recorder of
:class:`~repro.network.network.Channel`, and every ledger built on its own).
"""

from __future__ import annotations

from typing import Dict, Iterator, List, NamedTuple, Optional

from repro.errors import LedgerError
from repro.ledger.block import Block, BlockCutReason, Transaction

_HEADERS_ONLY = "this ledger keeps block headers only; record the chain to keep its blocks"


class BlockHeader(NamedTuple):
    """What the ledger keeps of every block."""

    number: int
    #: When the ordering service cut the block.
    created_at: float
    #: Transactions in the block (valid and failed).
    size: int
    cut_reason: BlockCutReason


class Ledger:
    """An ordered, append-only chain of blocks."""

    def __init__(self, keep_blocks: bool = True) -> None:
        self.headers: List[BlockHeader] = []
        #: Transactions recorded on the chain (valid and failed).
        self.transaction_count = 0
        self._blocks: Optional[List[Block]] = [] if keep_blocks else None
        self._tx_index: Dict[str, Transaction] = {}

    def append(self, block: Block) -> None:
        """Append the next block; block numbers must be consecutive.

        Block numbers start at 1: block number 0 is reserved for the genesis
        world-state population (see ``GENESIS_VERSION``).
        """
        expected = self.height + 1
        if block.number != expected:
            raise LedgerError(
                f"block number {block.number} out of order, expected {expected}"
            )
        if self._blocks is not None:
            for tx in block.transactions:
                if tx.tx_id in self._tx_index:
                    raise LedgerError(f"duplicate transaction id on the ledger: {tx.tx_id}")
                self._tx_index[tx.tx_id] = tx
            self._blocks.append(block)
        size = len(block.transactions)
        self.headers.append(BlockHeader(block.number, block.created_at, size, block.cut_reason))
        self.transaction_count += size

    @property
    def height(self) -> int:
        """Number of blocks on the chain."""
        return len(self.headers)

    def cut_time(self, number: int) -> float:
        """When block ``number`` was cut."""
        return self.headers[number - 1].created_at

    @property
    def blocks(self) -> List[Block]:
        """All blocks in order (the live list; treat as read-only)."""
        if self._blocks is None:
            raise LedgerError(_HEADERS_ONLY)
        return self._blocks

    def __iter__(self) -> Iterator[Block]:
        return iter(self.blocks)

    def __len__(self) -> int:
        return self.height

    def block(self, number: int) -> Block:
        """Return block ``number`` (1-based; block 0 is the genesis population)."""
        if not 1 <= number <= self.height:
            raise LedgerError(f"no block with number {number} (height={self.height})")
        return self.blocks[number - 1]

    def get_transaction(self, tx_id: str) -> Optional[Transaction]:
        """Look a transaction up by id, or ``None`` if it never reached a block."""
        if self._blocks is None:
            raise LedgerError(_HEADERS_ONLY)
        return self._tx_index.get(tx_id)

    def transactions(self) -> Iterator[Transaction]:
        """Iterate every transaction on the chain in commit order."""
        for block in self.blocks:
            yield from block.transactions

    def committed_transactions(self) -> List[Transaction]:
        """All transactions that passed validation."""
        return [tx for tx in self.transactions() if tx.is_committed]

    def failed_transactions(self) -> List[Transaction]:
        """All transactions recorded with a failure code."""
        return [tx for tx in self.transactions() if tx.is_failed]
