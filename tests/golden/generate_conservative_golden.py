"""Regenerate the conservative-execution golden record.

Conservative (epoch-synchronized) execution is a *distinct simulation
semantics*: cross-channel messages are delivered on the ``k * width`` barrier
grid (``width = timing.cross_channel_prepare``), and every shard's clock ends
on that grid.  It therefore gets its own golden pin, separate from the
shared-clock lifecycle golden: ``tests/test_sharded_conservative.py`` asserts
every run of these coupled configurations reproduces the pinned fingerprint
hash and metrics *bit for bit*.

Usage::

    PYTHONPATH=src python tests/golden/generate_conservative_golden.py [OUT.json]
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.core.fingerprint import record_fingerprint
from repro.network.config import NetworkConfig
from repro.sim.shard import ExecutionConfig

#: Variant families pinned under conservative execution.  Two suffice — the
#: shared-clock lifecycle golden already pins all four families; this record
#: pins the *epoch machinery*, which is variant-independent.
VARIANTS = ("fabric-1.4", "fabric++")

#: All cells are coupled (cross-channel traffic), the case conservative
#: execution exists for.
CHANNELS = 4
CROSS_CHANNEL_RATE = 0.1


def golden_config(variant: str) -> ExperimentConfig:
    """The pinned coupled configuration of one conservative golden cell."""
    return ExperimentConfig(
        variant=variant,
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            channels=CHANNELS,
            cross_channel_rate=CROSS_CHANNEL_RATE,
            execution=ExecutionConfig(conservative=True),
        ),
        arrival_rate=120.0,
        duration=4.0,
        zipf_skew=1.0,
        repetitions=1,
        seed=7,
    )


def fingerprint_hash(record) -> str:
    """SHA-256 over the canonical record fingerprint (bit-identity digest)."""
    payload = json.dumps(record_fingerprint(record), sort_keys=True, default=str)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def golden_cell(variant: str) -> dict:
    """Run one conservative golden cell and flatten it to JSON data."""
    config = golden_config(variant)
    analysis = run_repetition(config, repetition=0)
    metrics = analysis.metrics
    record = analysis.record
    return {
        "cell_hash": config.cell_hash(),
        "execution": record.execution,
        "shard_count": record.shard_count,
        "fingerprint_sha256": fingerprint_hash(record),
        "simulated_end": record.simulated_end,
        "submitted_transactions": metrics.submitted_transactions,
        "committed_transactions": metrics.committed_transactions,
        "blocks": metrics.blocks,
        "average_latency": metrics.average_latency,
        "committed_throughput": metrics.committed_throughput,
        "cross_channel_submitted": sum(
            channel.cross_channel_submitted for channel in record.channel_records
        ),
        "cross_channel_aborted": sum(
            channel.cross_channel_aborted for channel in record.channel_records
        ),
        "failures": metrics.failure_report.as_dict(),
    }


def generate() -> dict:
    """All conservative golden cells, keyed by variant."""
    return {variant: golden_cell(variant) for variant in VARIANTS}


def main(argv: list[str]) -> int:
    out = Path(argv[1]) if len(argv) > 1 else Path(__file__).with_name("conservative_golden.json")
    record = generate()
    out.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
    print(f"wrote {len(record)} conservative golden cells to {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
