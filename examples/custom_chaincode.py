"""Generate a custom chaincode and workload, then benchmark it (Section 4.4).

The paper's chaincode/workload generator takes the number of functions and the
read/insert/update/delete/range actions per function, and a workload mix plus a
key distribution.  This example builds an asset-transfer style chaincode with
the generator, prints the generated source code, runs it under two different
Zipfian skews and shows how the key skew drives MVCC conflicts.

Run with::

    python examples/custom_chaincode.py
"""

from __future__ import annotations

from repro import ExperimentConfig, NetworkConfig, TransactionMix, run_experiment
from repro.bench.reporting import format_table, print_report
from repro.chaincode.generator import ChaincodeGenerator, FunctionSpec


def build_generator() -> ChaincodeGenerator:
    generator = ChaincodeGenerator(name="asset_transfer", database="leveldb", num_keys=5_000)
    generator.add_function(FunctionSpec(name="readAsset", reads=1))
    generator.add_function(FunctionSpec(name="transferAsset", reads=2, updates=2))
    generator.add_function(FunctionSpec(name="createAsset", inserts=1))
    generator.add_function(FunctionSpec(name="auditAssets", range_reads=1, range_size=8))
    return generator


def main() -> None:
    generator = build_generator()

    print("Generated chaincode source (paper Section 4.4 generator output):")
    print("-" * 72)
    print(generator.source_code())
    print("-" * 72)

    # The workload names the generated chaincode and carries its specification
    # as data: registry name ``generated`` plus the generator's fields.
    workload = generator.workload(
        "asset-transfer-mix",
        TransactionMix.from_dict(
            {"readAsset": 0.35, "transferAsset": 0.45, "createAsset": 0.15, "auditAssets": 0.05}
        ),
        description="transfer-heavy asset workload",
    )

    rows = []
    for skew in (0.0, 1.0, 2.0):
        config = ExperimentConfig(
            workload=workload,
            network=NetworkConfig(cluster="C1", block_size=50, database="leveldb"),
            arrival_rate=80.0,
            duration=10.0,
            zipf_skew=skew,
            seed=5,
        )
        result = run_experiment(config)
        columns = ("failures_pct", "mvcc_pct", "phantom_read_pct", "latency_s")
        rows.append((skew, *map(result.value, columns)))
    print_report(
        format_table(
            ("zipf skew", "failures (%)", "MVCC conflicts (%)", "phantom reads (%)", "latency (s)"),
            rows,
            title="Generated asset-transfer chaincode under increasing key skew",
        )
    )
    print(
        "Takeaway: the same chaincode goes from almost conflict-free to heavily conflicted as\n"
        "key access becomes skewed — the data-model advice of Section 6.1 in action."
    )


if __name__ == "__main__":
    main()
