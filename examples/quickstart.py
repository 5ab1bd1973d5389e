"""Quickstart: run one Fabric experiment and explain why transactions failed.

This example runs the paper's default configuration (EHR chaincode, CouchDB,
block size 100, endorsement policy P0) at 100 tps on the small C1 cluster,
classifies every failed transaction into the failure types of Section 3, and
prints the practitioner recommendations of Section 6 that apply to the run.

Run with::

    python examples/quickstart.py
"""

from __future__ import annotations

from repro import (
    ExperimentConfig,
    FailureType,
    NetworkConfig,
    RecommendationEngine,
    run_experiment,
)
from repro.bench.reporting import format_table, print_report

#: The four failure classes of the paper's Section 3.
PAPER_CLASSES = (
    FailureType.ENDORSEMENT_POLICY,
    FailureType.MVCC_INTRA_BLOCK,
    FailureType.MVCC_INTER_BLOCK,
    FailureType.PHANTOM_READ,
)


def main() -> None:
    config = ExperimentConfig(
        variant="fabric-1.4",
        network=NetworkConfig(cluster="C1", block_size=100, database="couchdb"),
        arrival_rate=100.0,
        duration=15.0,
        zipf_skew=1.0,
        seed=42,
    )
    print(f"Running {config.variant} | {config.workload.name} | "
          f"{config.arrival_rate:.0f} tps for {config.duration:.0f} simulated seconds ...")
    # Naming a failed transaction (below) reads the chain, so the run records
    # it; the metrics alone need no recording.
    result = run_experiment(config, record_chain=True)
    analysis = result.analyses[0]
    metrics = analysis.metrics

    print_report(
        format_table(
            ("metric", "value"),
            [
                ("submitted transactions", metrics.submitted_transactions),
                ("committed transactions", metrics.committed_transactions),
                ("blocks on the ledger", metrics.blocks),
                ("average total latency (s)", metrics.average_latency),
                ("committed throughput (tps)", metrics.committed_throughput),
                ("total failures (%)", analysis.failure_report.total_failure_pct),
            ],
            title="Experiment summary",
        )
    )

    report = analysis.failure_report
    print_report(
        format_table(
            ("failure type", "percent of transactions"),
            [(failure.label, report.pct(failure)) for failure in PAPER_CLASSES],
            title="Why did my blockchain transactions fail?",
        )
    )

    hottest = analysis.hottest_conflicting_keys(limit=5)
    if hottest:
        print_report(
            format_table(("key", "conflicts"), hottest, title="Hottest conflicting keys")
        )

    mvcc_failures = analysis.failures_of_type(FailureType.MVCC_INTRA_BLOCK)
    if mvcc_failures:
        sample = mvcc_failures[0]
        print(
            f"Example: transaction {sample.tx_id} ({sample.function}) failed because key "
            f"{sample.conflicting_key!r} was rewritten by block {sample.conflicting_block}.\n"
        )

    print("Recommendations (paper Section 6):")
    for recommendation in RecommendationEngine().recommend(analysis):
        print(f"  - {recommendation.title}")
        print(f"      {recommendation.rationale}")


if __name__ == "__main__":
    main()
