"""Fault injection: what peer crashes and orderer blips do to a deployment.

The paper explains why transactions fail under *healthy* networks; this
example turns on the fault-injection subsystem (``repro.faults``) and watches
the failure profile change under chaos.  Three things to watch:

* three new failure classes appear — ``PEER_UNAVAILABLE`` (proposal to a
  crashed peer fails fast), ``ENDORSEMENT_TIMEOUT`` (a lost or stalled
  endorsement trips the client's watchdog) and ``ORDERER_UNAVAILABLE``
  (submissions refused during an outage window) — next to the paper's MVCC,
  endorsement and phantom classes;
* committed throughput degrades with the crash rate while *on-chain* failure
  percentages can even fall: fewer transactions reach the chain at all;
* enabling jittered-backoff retries recovers a large share of the requests
  the faults transiently lost — the same chaos, far better goodput.

The same chaos profile is expressible on the CLI::

    python -m repro run --database leveldb --block-size 10 --rate 60 \\
        --fault-spec 'peer-crash:rate=0.2,downtime=1.5;orderer-outage:start=2.4,duration=0.8'

Run with::

    python examples/fault_resilience.py
"""

from __future__ import annotations

from repro import ExperimentConfig, NetworkConfig, RetryConfig, run_experiment, uniform_workload
from repro.bench.reporting import format_table
from repro.faults import FaultConfig

#: Crashing peers (mean 1.5 s downtime), one mid-run orderer outage and a
#: small endorsement loss rate — transient faults a retry can outlast.
CHAOS = FaultConfig(
    peer_crash_rate=0.2,
    peer_downtime=1.5,
    orderer_outages=((2.4, 0.8),),
    endorsement_loss_rate=0.03,
)


#: The result columns the table prints after the committed transaction count.
COLUMNS = (
    "committed_requests",
    "peer_unavailable_pct",
    "endorsement_timeout_pct",
    "orderer_unavailable_pct",
    "client_effective_failure_pct",
)


def config(faults: FaultConfig, retry_policy: str = "none") -> ExperimentConfig:
    return ExperimentConfig(
        workload=uniform_workload("EHR", patients=100),
        network=NetworkConfig(
            cluster="C1",
            block_size=10,
            database="leveldb",
            faults=faults,
            retry=RetryConfig(policy=retry_policy, max_retries=5, backoff=0.1, max_backoff=1.5),
        ),
        arrival_rate=30.0,
        duration=8.0,
        seed=7,
    )


def main() -> None:
    print("Injecting peer crashes, an orderer outage and endorsement loss ...\n")
    rows = []
    for label, faults, policy in (
        ("healthy", FaultConfig(), "none"),
        ("chaos", CHAOS, "none"),
        ("chaos + jittered retries", CHAOS, "jittered"),
    ):
        result = run_experiment(config(faults, policy))
        committed = result.metrics[0].committed_transactions
        rows.append((label, committed, *map(result.value, COLUMNS)))
    print(
        format_table(
            ("scenario", "committed_transactions", *COLUMNS),
            rows,
            title="Fault resilience: the same workload under chaos, with and without retries",
        )
    )
    print(
        "\nCrashes and outages are transient, so client retries recover most of"
        "\nthe lost requests; see `python -m repro figure fault-resilience` and"
        "\n`python -m repro figure fault-retry` for the full sweeps."
    )


if __name__ == "__main__":
    main()
