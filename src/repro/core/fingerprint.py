"""The canonical digest of everything a run computed.

Two runs are bit-identical exactly when their fingerprints compare equal; the
goldens, the cross-plan determinism suites and the bench twins all compare
through it.
"""

from __future__ import annotations

from repro.ledger.block import Transaction
from repro.ledger.ledger import Ledger
from repro.network.network import RunRecord


#: :class:`RunRecord` fields that legitimately differ between execution
#: strategies: declared execution metadata plus observability (wall-clock
#: detail, never part of a cell's identity).
EXECUTION_METADATA_FIELDS = ("execution", "shard_count", "observability")


def record_fingerprint(record: RunRecord) -> dict:
    """A canonical, comparison-friendly digest of everything a run computed.

    Two runs are *bit-identical* in the sense of the sharding determinism
    contract exactly when their fingerprints compare equal: every transaction
    with all timing/validation fields, every block of every ledger, lifecycle
    counts, retry and fault counters, utilizations and the simulated horizon.
    The declared execution metadata (:data:`EXECUTION_METADATA_FIELDS`) is
    excluded — it is the one place the strategies are allowed to differ.
    A detached record (a runner result) has no chain to digest: it raises
    :class:`~repro.errors.AnalysisError`; compare such analyses with ``==``.
    """

    def tx_digest(tx: Transaction) -> tuple:
        return (
            tx.tx_id,
            tx.client_name,
            tx.function,
            tx.channel,
            tx.partner_channel,
            tx.attempt,
            tx.origin_tx_id,
            tx.submitted_at,
            tx.endorsement_completed_at,
            tx.prepare_started_at,
            tx.prepare_completed_at,
            tx.committed_at,
            tx.validation_code.value if tx.validation_code is not None else None,
            tx.endorsement_mismatch,
            len(tx.endorsements),
        )

    def ledger_digest(ledger: Ledger) -> list:
        return [
            (
                block.number,
                block.created_at,
                block.cut_reason.value if block.cut_reason is not None else None,
                tuple(
                    (tx.tx_id, tx.validation_code.value if tx.validation_code else None)
                    for tx in block.transactions
                ),
            )
            for block in ledger.blocks
        ]

    def run_digest(run: RunRecord) -> dict:
        digest = {
            "variant": run.variant_name,
            "chaincode": run.chaincode_name,
            "workload": run.workload_name,
            "arrival_rate": run.arrival_rate,
            "duration": run.duration,
            "seed": run.seed,
            "simulated_end": run.simulated_end,
            "blocks_cut": run.blocks_cut,
            "orderer_utilization": run.orderer_utilization,
            "mean_validation_utilization": run.mean_validation_utilization,
            "mean_endorsement_utilization": run.mean_endorsement_utilization,
            "lifecycle_counts": dict(run.lifecycle_counts),
            "retry": (
                run.retry_policy,
                run.resubmissions,
                run.retries_exhausted,
                run.retry_budget_denied,
                run.retry_rate_denied,
            ),
            "fault_injections": dict(run.fault_injections),
            "transactions": [tx_digest(tx) for tx in run.transactions],
            "early_aborted": [tx_digest(tx) for tx in run.early_aborted],
            "read_only_skipped": [tx_digest(tx) for tx in run.read_only_skipped],
            "ledger": ledger_digest(run.ledger),
        }
        # Isolation verdicts and witness sets are part of the fingerprint:
        # execution strategies must certify and refute identically, witness
        # for witness.  The key is omitted entirely when checking is off so
        # that enabling the checker never perturbs pre-checker golden digests.
        if run.isolation is not None:
            digest["isolation"] = run.isolation.summary()
        return digest

    digest = run_digest(record)
    digest["channels"] = [
        {
            "index": channel.index,
            "name": channel.name,
            "cross_channel_submitted": channel.cross_channel_submitted,
            "cross_channel_aborted": channel.cross_channel_aborted,
            "record": run_digest(channel.record),
        }
        for channel in record.channel_records
    ]
    return digest
