"""Smoke guard for the allocation-lean transaction pipeline (always-on, tier-1).

A fast version of the full-pipeline cells in ``bench_engine_speed.py``: a
short single-channel EHR deployment is driven through the calendar engine with
an :class:`~repro.sim.profile.EngineProfiler` attached and the sustained
events/sec is asserted against an absolute floor.  If a change drags the hot
path back toward per-event allocation churn (``__dict__`` instances, per-call
stream resolution, per-peer block revalidation) this trips inside the default
test selection, long before the slow bench runs.

Measurement protocol: one discarded warm-up run, then best-of-``SMOKE_TRIALS``
— the first run of a cell in a fresh process is dominated by bytecode warm-up
and allocator growth (~30% slower than steady state), and "best of" is the
standard way to ask "how fast can this machine run it" without averaging in
scheduler noise.  The collector is left alone: ``run()`` defers full
collections itself (:func:`repro.sim.collector.quiet_collector`), so whatever
heap the preceding test session left behind is not re-walked mid-run and the
trials time the program a user runs.

The floor (30k ev/s) sits far below the ~110k ev/s a warm idle single core
sustains after the hot-path overhaul, leaving headroom for slow shared CI
runners; the tight regression bar is the slow bench's
``NETWORK_1CH_SPEEDUP_FLOOR`` (2x the committed pre-overhaul baseline).
"""

from __future__ import annotations

from repro.chaincode import create_chaincode
from repro.fabric.variant import create_variant
from repro.network.config import NetworkConfig
from repro.network.network import FabricNetwork
from repro.sim.profile import EngineProfiler
from repro.workload.workloads import uniform_workload

SMOKE_ARRIVAL_RATE = 400.0
SMOKE_DURATION = 4.0
SMOKE_SEED = 11
SMOKE_TRIALS = 3
SMOKE_EVENTS_PER_SEC_FLOOR = 30_000.0


def _pipeline_cell() -> dict:
    """One short single-channel full-pipeline run, profiled."""
    spec = uniform_workload("EHR", patients=40)
    config = NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=4,
        block_size=10,
        database="leveldb",
    )
    network = FabricNetwork(
        config,
        create_chaincode(spec.chaincode, **spec.chaincode_kwargs),
        create_variant("fabric-1.4"),
        seed=SMOKE_SEED,
    )
    profiler = EngineProfiler(network.sim)
    with profiler:
        record = network.run(
            spec.mix, arrival_rate=SMOKE_ARRIVAL_RATE, duration=SMOKE_DURATION
        )
    report = profiler.report()
    report["transactions"] = len(record.transactions)
    return report


def test_pipeline_sustains_smoke_floor():
    warmup = _pipeline_cell()
    trials = [_pipeline_cell() for _ in range(SMOKE_TRIALS)]

    # Determinism first: every trial (and the warm-up) dispatches the exact
    # same schedule — only the wall-clock may differ.
    for trial in trials:
        assert trial["events"] == warmup["events"]
        assert trial["transactions"] == warmup["transactions"]
    assert warmup["transactions"] > 0

    best = max(trial["events_per_sec"] for trial in trials)
    assert best >= SMOKE_EVENTS_PER_SEC_FLOOR, (
        f"pipeline sustained only {best:,.0f} ev/s (best of {SMOKE_TRIALS} warm "
        f"trials, {warmup['events']:,} events each); smoke floor is "
        f"{SMOKE_EVENTS_PER_SEC_FLOOR:,.0f} ev/s"
    )
