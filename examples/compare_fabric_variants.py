"""Compare Fabric 1.4, Fabric++, Streamchain and FabricSharp on one workload.

This example reproduces the spirit of Figure 26: all four systems run the same
EHR workload at increasing arrival rates on the C1 cluster, and the table shows
how each optimization trades latency, MVCC conflicts, endorsement failures and
committed throughput.  The 4x3 grid is described declaratively as a
:class:`~repro.bench.runner.SweepPlan` and submitted in one batch to a
parallel :class:`~repro.bench.runner.ExperimentRunner`.

Run with::

    python examples/compare_fabric_variants.py
"""

from __future__ import annotations

from repro import ExperimentConfig, ExperimentRunner, NetworkConfig, SweepPlan
from repro.bench.reporting import format_table, print_report

VARIANTS = ("fabric-1.4", "fabric++", "streamchain", "fabricsharp")
ARRIVAL_RATES = (10, 50, 100)
COLUMNS = (
    "latency_s",
    "endorsement_policy_pct",
    "mvcc_pct",
    "failures_pct",
    "committed_throughput_tps",
)


def main() -> None:
    base = ExperimentConfig(
        network=NetworkConfig(cluster="C1", block_size=10, database="couchdb"),
        duration=10.0,
        seed=23,
    )
    plan = SweepPlan(base=base, variants=VARIANTS, arrival_rates=ARRIVAL_RATES)
    runner = ExperimentRunner(workers=2)
    outcome = runner.run_sweep(plan)
    rows = []
    for cell, result in zip(outcome.cells, outcome.results):
        rows.append((cell.variant, int(cell.arrival_rate), *map(result.value, COLUMNS)))
    print(f"runner: {outcome.stats.describe()}")
    print_report(
        format_table(
            (
                "system",
                "arrival rate",
                "latency (s)",
                "endorsement failures (%)",
                "MVCC conflicts (%)",
                "total failures (%)",
                "committed throughput (tps)",
            ),
            rows,
            title="Figure 26 style comparison of the four Fabric systems (EHR, C1)",
        )
    )
    print(
        "Reading guide: all three optimizations cut MVCC conflicts, none removes endorsement\n"
        "policy failures, Streamchain has by far the lowest latency at these low rates, and\n"
        "FabricSharp trades committed throughput for an (almost) conflict-free ledger."
    )


if __name__ == "__main__":
    main()
