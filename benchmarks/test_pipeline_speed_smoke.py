"""Smoke guard for the allocation-lean transaction pipeline (always-on, tier-1).

A fast version of the full-pipeline cells in ``bench_engine_speed.py``: a
short single-channel EHR deployment is driven through the calendar engine with
an :class:`~repro.sim.profile.EngineProfiler` attached, and the *work* it did
is pinned as integers — events dispatched, transactions submitted, events per
transaction.  A change that adds an event per transaction (a new hop, a
watchdog armed where none was, a per-peer callback that used to be shared)
moves these numbers on every machine alike, and trips here inside the default
test selection.

What the integers cannot see — the same events dispatched more slowly
(``__dict__`` instances, per-call stream resolution, per-peer block
revalidation) — is a wall-clock question, and wall-clock floors do not belong
in tier-1: the ≥30k ev/s floor on this cell is asserted by the slow bench
(``bench_engine_speed.py::test_pipeline_sustains_smoke_floor``).
"""

from __future__ import annotations

from repro.chaincode import create_chaincode
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.sim.profile import EngineProfiler
from repro.workload.workloads import uniform_workload

SMOKE_ARRIVAL_RATE = 400.0
SMOKE_DURATION = 4.0
SMOKE_SEED = 11
#: What the cell above does, exactly, on any machine.
SMOKE_EVENTS = 14_258
SMOKE_TRANSACTIONS = 1_601


def pipeline_cell() -> dict:
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
    network = build_network(
        config,
        lambda: create_chaincode(spec.chaincode, **spec.chaincode_kwargs),
        "fabric-1.4",
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


def test_pipeline_work_is_pinned_per_transaction():
    first = pipeline_cell()
    second = pipeline_cell()

    # Determinism first: every run dispatches the exact same schedule.
    assert (second["events"], second["transactions"]) == (first["events"], first["transactions"])

    assert first["transactions"] == SMOKE_TRANSACTIONS
    assert first["events"] == SMOKE_EVENTS, (
        f"the pipeline dispatched {first['events']:,} events for "
        f"{first['transactions']:,} transactions "
        f"({first['events'] / first['transactions']:.3f} per transaction); pinned "
        f"{SMOKE_EVENTS:,} ({SMOKE_EVENTS / SMOKE_TRANSACTIONS:.3f} per transaction)"
    )
