"""A domain study: tuning a healthcare (EHR) Fabric network.

The motivating scenario of the paper's introduction is an Electronic Health
Record network in which more than 40 % of transactions failed.  This example
walks through the decisions a practitioner would make for such a network:

1. measure the failure breakdown of the initial configuration,
2. evaluate the impact of the endorsement policy and of the number of
   organizations (Sections 5.1.3-5.1.4),
3. check whether skipping read-only queries (Section 6.1, client design) and a
   better block size help,
4. print the final configuration recommendation.

Run with::

    python examples/healthcare_ehr_study.py
"""

from __future__ import annotations

from repro import ExperimentConfig, ExperimentRunner, NetworkConfig, RecommendationEngine, ResultCache
from repro.bench.reporting import format_table, print_report

ARRIVAL_RATE = 100.0
DURATION = 10.0

#: One cached runner for the whole study.  Point the cache at a directory
#: (``ResultCache("ehr-study-cache")``) and re-running the script after editing
#: a step only simulates the configurations that actually changed.
RUNNER = ExperimentRunner(workers=2, cache=ResultCache())


def run(label, **overrides):
    network_kwargs = dict(cluster="C2", block_size=100, database="couchdb")
    network_kwargs.update(overrides.pop("network", {}))
    config = ExperimentConfig(
        network=NetworkConfig(**network_kwargs),
        arrival_rate=ARRIVAL_RATE,
        duration=DURATION,
        seed=29,
        **overrides,
    )
    result = RUNNER.run(config)
    columns = ("failures_pct", "endorsement_policy_pct", "mvcc_pct", "latency_s")
    return (label, *map(result.value, columns)), result


def main() -> None:
    rows = []
    baseline_row, baseline = run("baseline: 8 orgs, P0, block 100, submit all")
    rows.append(baseline_row)

    fewer_orgs_row, _ = run("fewer organizations (4 orgs)", network={"orgs": 4})
    rows.append(fewer_orgs_row)

    simpler_policy_row, _ = run("simpler endorsement policy (P3 quorum)", network={"endorsement_policy": "P3"})
    rows.append(simpler_policy_row)

    block_row, _ = run("tuned block size (50)", network={"block_size": 50})
    rows.append(block_row)

    readonly_row, _ = run(
        "tuned block size + skip read-only queries",
        network={"block_size": 50, "submit_read_only": False},
    )
    rows.append(readonly_row)

    leveldb_row, _ = run(
        "all of the above on LevelDB",
        network={"block_size": 50, "submit_read_only": False, "database": "leveldb", "orgs": 4},
    )
    rows.append(leveldb_row)

    print_report(
        format_table(
            ("configuration", "failures (%)", "endorsement (%)", "MVCC (%)", "latency (s)"),
            rows,
            title="Tuning an EHR network step by step (100 tps, C2 cluster)",
        )
    )

    print("What the analyzer recommends for the baseline run:")
    analysis = baseline.analyses[0]
    for recommendation in RecommendationEngine().recommend(analysis):
        print(f"  - [{recommendation.paper_section}] {recommendation.title}")


if __name__ == "__main__":
    main()
