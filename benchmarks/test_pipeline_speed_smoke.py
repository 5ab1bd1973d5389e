"""Smoke guard for the allocation-lean transaction pipeline (always-on, tier-1).

A fast version of the full-pipeline cells in ``bench_engine_speed.py``: a
short single-channel EHR deployment is driven through the calendar engine with
an :class:`~repro.sim.profile.EngineProfiler` attached, and the *work* it did
is pinned as integers — events dispatched, transactions submitted, events per
transaction.  A change that adds an event per transaction (a new hop, a
watchdog armed where none was, a per-peer callback that used to be shared, a
per-endorser arrival event that used to be one per round) moves these numbers
on every machine alike, and trips here inside the default test selection.

Two cells, because the endorsement fan-out is the bulk of the budget and
scales with the number of endorsers N (``2N + 3`` events per attempt plus the
block-amortised rest, see "Hot path" in docs/ARCHITECTURE.md): the C1 smoke
cell has two endorsers, the paper's default cell (cluster C2, policy P0) has
eight, and a fan-out regression that costs one event per endorser is four
times louder there.

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
SMOKE_EVENTS = 12_657
SMOKE_TRANSACTIONS = 1_601
#: What it did while every endorsement response was an event of its own.
SMOKE_EVENTS_PER_RESPONSE = 14_258

#: The paper's default topology (Table 3), cut short: cluster C2, policy P0,
#: eight endorsers per proposal, 100 tx/s.  19.813 events per attempt:
#: 2 * 8 + 3, plus 0.813 of block cutting, delivery and commits.
PAPER_ARRIVAL_RATE = 100.0
PAPER_EVENTS = 7_945
PAPER_TRANSACTIONS = 401


def smoke_config() -> NetworkConfig:
    return NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=4,
        block_size=10,
        database="leveldb",
    )


def pipeline_cell(
    config: NetworkConfig | None = None, arrival_rate: float = SMOKE_ARRIVAL_RATE
) -> dict:
    """One short single-channel full-pipeline run, profiled."""
    spec = uniform_workload("EHR", patients=40)
    config = config or smoke_config()
    network = build_network(
        config,
        lambda: create_chaincode(spec.chaincode, **spec.chaincode_kwargs),
        "fabric-1.4",
        seed=SMOKE_SEED,
    )
    profiler = EngineProfiler(network.sim)
    with profiler:
        record = network.run(spec.mix, arrival_rate=arrival_rate, duration=SMOKE_DURATION)
    report = profiler.report()
    report["transactions"] = len(record.transactions)
    #: Responses that ride on their round's one wake-up: all but one per attempt.
    report["folded_responses"] = sum(len(tx.endorsements) - 1 for tx in record.transactions)
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
    # The identity behind the integer: a round of N responses wakes the client
    # once, where it used to be woken N times.
    assert SMOKE_EVENTS_PER_RESPONSE - first["events"] == first["folded_responses"] == 1_601


def test_paper_topology_work_is_pinned_per_attempt():
    cell = pipeline_cell(
        NetworkConfig(cluster="C2", database="leveldb"), arrival_rate=PAPER_ARRIVAL_RATE
    )
    assert cell["folded_responses"] == 7 * cell["transactions"]  # eight endorsers each
    assert (cell["events"], cell["transactions"]) == (PAPER_EVENTS, PAPER_TRANSACTIONS), (
        f"the C2 / P0 cell dispatched {cell['events']:,} events for "
        f"{cell['transactions']:,} attempts "
        f"({cell['events'] / cell['transactions']:.3f} per attempt); pinned "
        f"{PAPER_EVENTS:,} / {PAPER_TRANSACTIONS:,} "
        f"({PAPER_EVENTS / PAPER_TRANSACTIONS:.3f} per attempt)"
    )
