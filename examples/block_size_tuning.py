"""Block-size tuning: reproduce the paper's headline finding on a small setup.

The paper's first recommendation is to adapt the block size to the transaction
arrival rate (Sections 5.1.1 and 6.1): the best block size grows roughly
linearly with the arrival rate and picking it can cut failures by up to 60 %.
This example sweeps block sizes at several arrival rates, prints the best and
worst setting per rate, and then shows how the adaptive block-size controller
of Section 6.2 would configure the network online.  The grid is one
:class:`~repro.bench.runner.SweepPlan` submitted to an
:class:`~repro.bench.runner.ExperimentRunner` as one batch, so its cells fan
out across worker processes (results are bit-identical to serial execution)
and a warm cache skips finished cells.

Run with::

    python examples/block_size_tuning.py
"""

from __future__ import annotations

from repro import (
    AdaptiveBlockSizeController,
    ExperimentConfig,
    ExperimentRunner,
    NetworkConfig,
    ResultCache,
    SweepPlan,
)
from repro.bench.reporting import format_table, print_report
from repro.core.adaptive import SweepResult

ARRIVAL_RATES = (25, 100, 200)
BLOCK_SIZES = (10, 50, 150)


def main() -> None:
    runner = ExperimentRunner(workers=2, cache=ResultCache())
    base = ExperimentConfig(network=NetworkConfig(cluster="C2"), duration=8.0, seed=17)
    outcome = runner.run_sweep(
        SweepPlan(base, block_sizes=BLOCK_SIZES, arrival_rates=ARRIVAL_RATES)
    )
    rows = []
    calibration = {}
    for rate in ARRIVAL_RATES:
        sweep = SweepResult(
            {
                cell.block_size: result.value("failures_pct")
                for cell, result in zip(outcome.cells, outcome.results)
                if cell.arrival_rate == rate
            }
        )
        calibration[float(rate)] = sweep.best_block_size
        rows.append(
            (
                rate,
                sweep.best_block_size,
                sweep.worst_block_size,
                sweep.min_failures,
                sweep.max_failures,
                sweep.improvement_pct,
            )
        )
    print_report(
        format_table(
            (
                "arrival rate (tps)",
                "best block size",
                "worst block size",
                "least failures (%)",
                "most failures (%)",
                "reduction (%)",
            ),
            rows,
            title="Figure 4/5 style block-size sweep (EHR, C2)",
        )
    )
    print(f"runner: {runner.stats.describe()}")

    controller = AdaptiveBlockSizeController(
        min_block_size=min(BLOCK_SIZES), max_block_size=max(BLOCK_SIZES), calibration=calibration
    )
    adaptive_rows = []
    for observed_rate in (20, 60, 120, 180):
        adaptive_rows.append((observed_rate, controller.suggest(observed_rate)))
    print_report(
        format_table(
            ("observed arrival rate (tps)", "suggested block size"),
            adaptive_rows,
            title="Adaptive block-size controller (Section 6.2) fed with the sweep calibration",
        )
    )


if __name__ == "__main__":
    main()
