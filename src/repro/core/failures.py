"""The failure taxonomy (paper Section 3): what a validation code means.

A transaction's failure is decided once, by the component that aborts it: the
client's endorsement round (Equation 1, :func:`repro.ledger.rwset.read_sets_consistent`),
a variant hook, the ordering service, the cross-channel coordinator, a fault
path, or the canonical :class:`~repro.network.validator.BlockValidator`
(Equations 2 and 5).  That component stamps ``validation_code`` on the
transaction and, for the two conflict codes, ``conflicting_key`` and
``conflicting_block``.  Everything downstream — lifecycle events, the ledger
analysis, the reports — reads the stamp through this module, the only one
that knows what a code means:

* :class:`FailureType` — the failure classes, with the facts kept about each
  (recorded on chain or not, induced by an injected fault or not, the label a
  report prints);
* :data:`MVCC` and :data:`INFRASTRUCTURE` — the two groups a report sums;
* :data:`FAILURE_OF_CODE` — validation code → class, total over the failure
  codes;
* :func:`failure_type_of` — the class of one transaction, which adds the one
  distinction a code does not carry: an MVCC read conflict is *intra-block*
  when the conflicting write sits in the reader's own block (Equation 3) and
  *inter-block* when an earlier block committed it (Equation 4).

The stamp is checked, not trusted: ``tests/failure_oracle.py`` re-derives
class, key and block of every failed transaction from the ledger alone, in
terms of Equations 1–5, and tier-1 compares the two.
"""

from __future__ import annotations

import enum
from typing import Dict, Optional

from repro.ledger.block import Transaction, ValidationCode


class FailureType(enum.Enum):
    """The concurrency-related failure classes studied in the paper."""

    ENDORSEMENT_POLICY = "endorsement_policy_failure"
    MVCC_INTRA_BLOCK = "intra_block_mvcc_read_conflict"
    MVCC_INTER_BLOCK = "inter_block_mvcc_read_conflict"
    PHANTOM_READ = "phantom_read_conflict"
    #: Transactions aborted by Fabric++ inside the ordering phase to break a
    #: conflict-graph cycle (still recorded on the ledger).
    ORDERING_ABORT = "aborted_in_ordering"
    #: Transactions aborted by FabricSharp before ordering (never reach a block).
    EARLY_ABORT = "early_abort"
    #: Cross-channel transactions whose two-phase prepare was aborted by the
    #: coordinator (a lock conflict during the prepare window; never reach a
    #: block — extension beyond the paper, see :mod:`repro.channels`).
    CROSS_CHANNEL_ABORT = "cross_channel_abort"
    #: The client's endorsement-collection watchdog expired: an endorsement
    #: was lost in transit or an endorser stalled past the timeout
    #: (fault-injection extension, see :mod:`repro.faults`).
    ENDORSEMENT_TIMEOUT = "endorsement_timeout"
    #: The transaction was submitted while the slice's ordering service was
    #: inside an outage window (fault-injection extension).
    ORDERER_UNAVAILABLE = "orderer_unavailable"
    #: A proposal failed fast against a crashed or partitioned endorsing peer
    #: (fault-injection extension).
    PEER_UNAVAILABLE = "peer_unavailable"

    @property
    def is_mvcc(self) -> bool:
        """True for the two MVCC read conflict classes."""
        return self in MVCC

    @property
    def on_chain(self) -> bool:
        """False for the classes whose transactions never reach a block.

        Like the paper, which collects all metrics by parsing the blockchain,
        the headline failure percentage counts the on-chain classes only; the
        others show up as reduced committed throughput (Section 5.4.2).
        """
        return self not in _NEVER_ON_CHAIN

    @property
    def label(self) -> str:
        """The row label of this class's percentage in a text report."""
        return _LABELS[self]


#: The two MVCC read conflict classes, in declaration order: a report's MVCC
#: share is ``FailureReport.pct(*MVCC)``, intra-block plus inter-block.
MVCC = (FailureType.MVCC_INTRA_BLOCK, FailureType.MVCC_INTER_BLOCK)

#: The classes an injected fault causes, in declaration order.
INFRASTRUCTURE = (
    FailureType.ENDORSEMENT_TIMEOUT,
    FailureType.ORDERER_UNAVAILABLE,
    FailureType.PEER_UNAVAILABLE,
)

#: FabricSharp's early aborts, the coordinator's prepare aborts and whatever a
#: fault path aborts.  (A client-side endorsement check also drops its
#: transactions before ordering; they stay endorsement policy failures, which
#: is the class the validator would have recorded for them.)
_NEVER_ON_CHAIN = frozenset(
    INFRASTRUCTURE + (FailureType.EARLY_ABORT, FailureType.CROSS_CHANNEL_ABORT)
)

_LABELS = {
    FailureType.ENDORSEMENT_POLICY: "endorsement policy failures (%)",
    FailureType.MVCC_INTRA_BLOCK: "intra-block MVCC conflicts (%)",
    FailureType.MVCC_INTER_BLOCK: "inter-block MVCC conflicts (%)",
    FailureType.PHANTOM_READ: "phantom read conflicts (%)",
    FailureType.ORDERING_ABORT: "aborted in ordering (%)",
    FailureType.EARLY_ABORT: "early aborts (%)",
    FailureType.CROSS_CHANNEL_ABORT: "cross-channel aborts (%)",
    FailureType.ENDORSEMENT_TIMEOUT: "endorsement timeouts (%)",
    FailureType.ORDERER_UNAVAILABLE: "orderer unavailable (%)",
    FailureType.PEER_UNAVAILABLE: "peer unavailable (%)",
}

#: Every failure code's class.  ``MVCC_READ_CONFLICT`` names the inter-block
#: class; :func:`failure_type_of` moves a conflict into the intra-block class.
FAILURE_OF_CODE: Dict[ValidationCode, FailureType] = {
    ValidationCode.ENDORSEMENT_POLICY_FAILURE: FailureType.ENDORSEMENT_POLICY,
    ValidationCode.MVCC_READ_CONFLICT: FailureType.MVCC_INTER_BLOCK,
    ValidationCode.PHANTOM_READ_CONFLICT: FailureType.PHANTOM_READ,
    ValidationCode.ABORTED_BY_REORDERING: FailureType.ORDERING_ABORT,
    ValidationCode.EARLY_ABORT: FailureType.EARLY_ABORT,
    ValidationCode.CROSS_CHANNEL_ABORT: FailureType.CROSS_CHANNEL_ABORT,
    ValidationCode.ENDORSEMENT_TIMEOUT: FailureType.ENDORSEMENT_TIMEOUT,
    ValidationCode.ORDERER_UNAVAILABLE: FailureType.ORDERER_UNAVAILABLE,
    ValidationCode.PEER_UNAVAILABLE: FailureType.PEER_UNAVAILABLE,
}


#: The codes whose stamp names a ``conflicting_key``: MVCC (either kind) and phantom.
CONFLICT_CODES = (ValidationCode.MVCC_READ_CONFLICT, ValidationCode.PHANTOM_READ_CONFLICT)


def failure_type_of(tx: Transaction) -> Optional[FailureType]:
    """The failure class of a failed transaction (``None`` if not failed)."""
    failure = FAILURE_OF_CODE.get(tx.validation_code)
    if (
        failure is FailureType.MVCC_INTER_BLOCK
        and tx.conflicting_block is not None
        and tx.conflicting_block == tx.block_number
    ):
        return FailureType.MVCC_INTRA_BLOCK
    return failure
