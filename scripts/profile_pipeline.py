#!/usr/bin/env python
"""Profile the transaction pipeline under cProfile, grouped by stage.

Runs the same full-pipeline deployment as the ``network-*ch`` cells of
``benchmarks/bench_engine_speed.py`` (EHR chaincode, uniform mix, C1 cluster)
with :mod:`cProfile` attached, then prints two views:

1. the classic top-N table (``pstats``, sorted by ``--sort``), and
2. a per-pipeline-stage roll-up — total time attributed to the functions of
   each stage's modules (execute / order / validate / engine / rng / other) —
   which answers "where does a transaction's budget go" at a glance.

This is the tool that found the wins of the allocation-lean hot-path overhaul
(enum hashing in the lifecycle bus, per-proposal endorsement-state
resolution, per-peer block revalidation); keep using it before and after any
change to the endorse -> order -> validate spine.

Usage::

    PYTHONPATH=src python scripts/profile_pipeline.py
    PYTHONPATH=src python scripts/profile_pipeline.py --channels 8 --top 40
    PYTHONPATH=src python scripts/profile_pipeline.py --sort tottime
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.chaincode import create_chaincode  # noqa: E402
from repro.lifecycle import pipeline  # noqa: E402
from repro.network.config import NetworkConfig  # noqa: E402
from repro.workload.workloads import uniform_workload  # noqa: E402

#: Pipeline stage -> module substrings whose functions belong to it.  A
#: frame is attributed to the first stage whose substring matches its file.
STAGES = [
    ("execute", ("network/client_node", "network/peer", "chaincode/", "workload/")),
    ("order", ("network/orderer", "fabric/")),
    ("validate", ("network/validator", "ledger/")),
    ("engine", ("sim/engine", "sim/resources")),
    ("rng", ("sim/rng", "random.py", "network/latency")),
    ("lifecycle", ("lifecycle/",)),
]


def build_network(channels: int, seed: int):
    spec = uniform_workload("EHR", patients=40)
    config = NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=4,
        block_size=10,
        database="leveldb",
        channels=channels,
        cross_channel_rate=0.05 if channels > 1 else 0.0,
    )
    network = pipeline.build_network(
        config,
        chaincode_factory=lambda: create_chaincode(spec.chaincode, **spec.chaincode_kwargs),
        variant_factory="fabric-1.4",
        seed=seed,
    )
    return network, spec


def stage_of(filename: str) -> str:
    normalized = filename.replace("\\", "/")
    for stage, needles in STAGES:
        if any(needle in normalized for needle in needles):
            return stage
    return "other"


def stage_rollup(stats: pstats.Stats) -> list:
    """Total own-time (tottime) per pipeline stage, largest first.

    ``tottime`` (time inside the function itself, callees excluded) sums to
    the run's wall-clock across all frames, so the roll-up is a partition —
    unlike ``cumtime``, which would double-count callers and callees.
    """
    totals: dict = {}
    for (filename, _lineno, _name), (_cc, _nc, tottime, _ct, _callers) in stats.stats.items():
        stage = stage_of(filename)
        totals[stage] = totals.get(stage, 0.0) + tottime
    return sorted(totals.items(), key=lambda item: item[1], reverse=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--channels", type=int, default=1, help="channel count (default 1)")
    parser.add_argument("--rate", type=float, default=400.0, help="arrival rate per channel (tx/s)")
    parser.add_argument("--duration", type=float, default=15.0, help="simulated seconds")
    parser.add_argument("--seed", type=int, default=11, help="deployment seed")
    parser.add_argument("--top", type=int, default=25, help="rows in the pstats table")
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime", "ncalls"],
        help="pstats sort key for the top-N table",
    )
    parser.add_argument("--out", type=Path, default=None, help="also dump raw stats to this file")
    options = parser.parse_args()

    network, spec = build_network(options.channels, options.seed)
    arrival_rate = options.rate * options.channels

    profiler = cProfile.Profile()
    profiler.enable()
    record = network.run(spec.mix, arrival_rate=arrival_rate, duration=options.duration)
    profiler.disable()

    stats = pstats.Stats(profiler)
    if options.out is not None:
        stats.dump_stats(options.out)

    print(
        f"pipeline: channels={options.channels} rate={arrival_rate:g} tx/s "
        f"duration={options.duration:g}s -> {len(record.transactions):,} transactions\n"
    )
    stats.sort_stats(options.sort).print_stats(options.top)

    total = sum(tottime for _stage, tottime in stage_rollup(stats))
    print("per-stage roll-up (tottime, callees excluded):")
    for stage, tottime in stage_rollup(stats):
        share = (tottime / total * 100.0) if total else 0.0
        print(f"  {stage:<10} {tottime:8.3f}s  {share:5.1f}%")
    return 0


if __name__ == "__main__":
    sys.exit(main())
