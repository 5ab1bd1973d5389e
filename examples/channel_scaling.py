"""Channel scaling: shard one workload across Fabric channels.

The paper's failure study runs on a single channel, but channels are Fabric's
real-world mechanism for scaling throughput and isolating workloads.  This
example saturates a single ordering service, then shards the same workload
across 1, 2 and 4 channels (hash placement) and shows aggregate committed
throughput rising while the MVCC abort rate falls — and finally mixes in
cross-channel transactions to show the new ``CROSS_CHANNEL_ABORT`` failure
class of the two-phase prepare/commit.

Run with::

    python examples/channel_scaling.py
"""

from __future__ import annotations

from repro import ExperimentConfig, NetworkConfig, run_experiment, uniform_workload
from repro.bench.reporting import format_table, print_report


def config(channels: int, cross_channel_rate: float = 0.0) -> ExperimentConfig:
    return ExperimentConfig(
        workload=uniform_workload("EHR", patients=100),
        network=NetworkConfig(
            cluster="C1",
            block_size=10,
            database="leveldb",
            channels=channels,
            placement="hash",
            cross_channel_rate=cross_channel_rate,
        ),
        arrival_rate=400.0,
        duration=5.0,
        zipf_skew=1.0,
        seed=42,
    )


SCALING_COLUMNS = ("committed_throughput_tps", "mvcc_pct", "latency_s")
CROSS_COLUMNS = ("committed_throughput_tps", "cross_channel_abort_pct", "mvcc_pct")


def main() -> None:
    print("Sharding one 400 tps EHR workload across channels (hash placement) ...\n")
    rows = []
    for channels in (1, 2, 4):
        result = run_experiment(config(channels))
        utilization = result.metrics[0].orderer_utilization
        rows.append((channels, *map(result.value, SCALING_COLUMNS), utilization))
    print_report(
        format_table(
            ("channels", *SCALING_COLUMNS, "orderer_util"),
            rows,
            title="Channel scaling at 0% cross-channel rate",
        )
    )

    print("Adding cross-channel transactions (4 channels, 2PC prepare/commit) ...\n")
    rows = []
    for rate in (0.0, 0.2, 0.5):
        result = run_experiment(config(4, cross_channel_rate=rate))
        rows.append((f"{rate:.0%}", *map(result.value, CROSS_COLUMNS)))
    print_report(
        format_table(
            ("cross_rate", *CROSS_COLUMNS),
            rows,
            title="Cross-channel fraction vs throughput and 2PC aborts",
        )
    )

    analysis = run_experiment(config(4, cross_channel_rate=0.5)).analyses[0]
    print("Per-channel breakdown of the 50% cross-channel run:\n")
    print_report(
        format_table(
            (
                "channel",
                "submitted_transactions",
                "committed_throughput_tps",
                "failures_pct",
                "cross_channel_submitted",
                "cross_channel_aborted",
            ),
            [
                (
                    channel.name,
                    channel.metrics.submitted_transactions,
                    channel.metrics.committed_throughput,
                    channel.failure_report.total_failure_pct,
                    channel.cross_channel_submitted,
                    channel.cross_channel_aborted,
                )
                for channel in analysis.channel_analyses
            ],
            title="Per-channel records",
        )
    )


if __name__ == "__main__":
    main()
