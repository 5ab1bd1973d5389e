"""Variant behaviour base class and registry.

A variant behaviour encapsulates everything that differs between Fabric 1.4 and
the studied optimizations: how the ordering service batches and possibly
reorders transactions, how expensive ordering and validation are, whether
transactions can be aborted before ordering, and which state the endorsers
execute against.  The default implementations in
:class:`FabricVariantBehavior` are exactly Fabric 1.4 semantics; subclasses
override individual hooks.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, Optional, Type

from repro.errors import ConfigurationError
from repro.ledger.block import Block, Transaction, ValidationCode
from repro.network.config import NetworkConfig
from repro.network.endorsement import PolicyNode, build_policy

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.orderer import OrderingService


class FabricVariantBehavior:
    """Fabric 1.4 pipeline semantics; the base for every optimization."""

    #: Display name used in reports and figures.
    name = "Fabric 1.4"
    #: FabricSharp endorses against a snapshot lagging one block behind
    #: (served as an epoch-pinned :class:`~repro.ledger.store.LaggedStateView`
    #: over the peer's overlay store).
    endorse_from_snapshot = False
    #: FabricSharp does not support range queries (paper Section 5.4).
    supports_range_queries = True

    def __init__(self) -> None:
        self._policy: Optional[PolicyNode] = None
        #: Cached ``policy.subpolicy_count()`` (static per policy tree); the
        #: VSCC cost model reads it once per transaction.
        self._subpolicy_count: Optional[int] = None

    # ----------------------------------------------------------- configuration
    def configure(self, config: NetworkConfig) -> NetworkConfig:
        """Adjust the network configuration for this variant.

        The base implementation only resolves and caches the endorsement policy
        (needed by the VSCC cost model); subclasses may also rewrite block
        cutting parameters (Streamchain forces a block size of one).
        """
        self._policy = build_policy(config.endorsement_policy, config.orgs)
        self._subpolicy_count = self._policy.subpolicy_count()
        return config

    @property
    def policy(self) -> PolicyNode:
        """The resolved endorsement policy (available after ``configure``)."""
        if self._policy is None:
            raise ConfigurationError(
                f"variant {self.name!r} was not configured; call configure() first"
            )
        return self._policy

    # -------------------------------------------------------------- ordering
    def on_transaction_arrival(self, tx: Transaction, orderer: "OrderingService") -> bool:
        """Decide whether a transaction enters the ordering pipeline.

        Returning ``False`` drops the transaction as an early abort (it never
        reaches a block).  Fabric 1.4 accepts everything.
        """
        return True

    def prepare_block(self, block: Block, orderer: "OrderingService") -> float:
        """Pre-process a freshly cut block (reordering, in-block aborts).

        Returns the extra ordering-service time the pre-processing costs.
        Fabric 1.4 performs no pre-processing.
        """
        return 0.0

    def after_block_validated(self, block: Block, orderer: "OrderingService") -> None:
        """Hook invoked after canonical validation of a block (bookkeeping)."""

    def ordering_service_time(self, block: Block, config: NetworkConfig, peer_count: int) -> float:
        """Consensus and block-broadcast time of the ordering service."""
        timing = config.timing
        return (
            timing.orderer_per_block
            + timing.orderer_per_tx * block.size
            + timing.orderer_broadcast_per_peer * peer_count
        )

    # ------------------------------------------------------------- validation
    def validation_service_time(self, block: Block, config: NetworkConfig) -> float:
        """Time one peer needs to validate and commit ``block``.

        Covers the VSCC endorsement-policy check, the MVCC version checks, the
        re-execution of phantom-checked range queries (expensive on CouchDB)
        and the state-database commit of the valid write sets.
        """
        timing = config.timing
        database = config.database_profile
        subpolicy_count = self._subpolicy_count
        if subpolicy_count is None:
            subpolicy_count = self.policy.subpolicy_count()
        # Inlined vscc_validation_cost with the (static) sub-policy term
        # precomputed; the per-transaction arithmetic is unchanged.
        vscc_per_signature = timing.vscc_per_signature
        vscc_subpolicy_cost = timing.vscc_per_subpolicy * subpolicy_count
        mvcc_check_per_key = database.mvcc_check_per_key
        commit_per_write = database.commit_per_write
        range_cost = database.range_cost
        aborted = ValidationCode.ABORTED_BY_REORDERING
        valid = ValidationCode.VALID
        total = timing.validation_per_block + database.commit_per_block
        for tx in block.transactions:
            if tx.validation_code is aborted:
                continue
            total += vscc_per_signature * max(1, tx.endorsement_count) + vscc_subpolicy_cost
            rwset = tx.rwset
            if rwset is None:
                continue
            total += mvcc_check_per_key * len(rwset.reads)
            for range_read in rwset.range_reads:
                if range_read.phantom_detection:
                    total += range_cost(len(range_read.reads))
            if tx.validation_code is valid:
                total += commit_per_write * len(rwset.writes)
        return total

    # -------------------------------------------------------------- reporting
    def describe(self) -> str:
        """One-line description used by reports."""
        return self.name

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}()"


#: Registry filled by the concrete variant modules (see ``register_variant``).
VARIANT_REGISTRY: Dict[str, Type[FabricVariantBehavior]] = {}

#: Accepted spellings for each canonical variant key.
_ALIASES = {
    "fabric": "fabric-1.4",
    "fabric1.4": "fabric-1.4",
    "fabric-1.4": "fabric-1.4",
    "fabric14": "fabric-1.4",
    "fabric 1.4": "fabric-1.4",
    "fabric++": "fabric++",
    "fabricpp": "fabric++",
    "fabric-plus-plus": "fabric++",
    "streamchain": "streamchain",
    "fabricsharp": "fabricsharp",
    "fabric#": "fabricsharp",
    "fabric-sharp": "fabricsharp",
}


def register_variant(key: str, variant_class: Type[FabricVariantBehavior]) -> None:
    """Register a variant class under its canonical key."""
    VARIANT_REGISTRY[key] = variant_class


def available_variants() -> list[str]:
    """Canonical keys of all registered variants."""
    return sorted(VARIANT_REGISTRY)


def create_variant(name: str) -> FabricVariantBehavior:
    """Instantiate a variant by (case-insensitive) name; a custom one is registered first."""
    key = _ALIASES.get(str(name).strip().lower())
    if key is None or key not in VARIANT_REGISTRY:
        known = ", ".join(available_variants())
        raise ConfigurationError(f"unknown Fabric variant {name!r}; known variants: {known}")
    return VARIANT_REGISTRY[key]()
