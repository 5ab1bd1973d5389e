"""Engine-speed measurement: a synthetic transaction cascade on one engine.

The cascade models the hot event pattern of a Fabric cell without the
chaincode/ledger work, so it isolates pure scheduler cost: every transaction
is one pre-scheduled arrival that fans out to two endorsement hops, two
response collections and one ordering submission (six events per
transaction), and every ``watchdog_every``-th transaction arms a cancellable
endorsement watchdog that the submission cancels — exercising exactly the
schedule / post / cancel mix the network model produces.

All random delays are pre-drawn into tables before the timed window opens,
so the measured wall-clock is scheduling plus dispatch, not RNG cost.  The
same driver runs against both the production calendar-queue engine
(:class:`repro.sim.engine.Simulator`) and the pre-overhaul heapq oracle
(:class:`repro.sim.reference.ReferenceSimulator`); both dispatch in identical
``(time, sequence)`` order, so the workload is identical event for event and
the events/sec ratio is a clean engine-only comparison.
``benchmarks/bench_engine_speed.py`` records the ratio in
``BENCH_engine_speed.json`` and asserts the acceptance floor.
"""

from __future__ import annotations

import random
import time
from typing import TYPE_CHECKING, Dict, List, Tuple, Union

from repro.sim.engine import Simulator
from repro.sim.reference import ReferenceSimulator

if TYPE_CHECKING:  # experiments imports this module
    from repro.bench.experiments import Scale

#: Engines the cascade can drive, keyed by the name used in reports.
ENGINES = {
    "calendar": Simulator,
    "heapq-reference": ReferenceSimulator,
}

#: Per-scale cascade sizes used by the ``engine-speed`` experiment entry.
CASCADE_TRANSACTIONS = {
    "quick": 50_000,
    "standard": 250_000,
    "paper": 1_000_000,
}

_ARRIVAL_RATE = 5_000.0  # transactions per simulated second
_HOP_RATE = 1_000.0  # endorsement/collection hops: mean 1 ms
_SUBMIT_RATE = 4_000.0  # ordering submission hop: mean 0.25 ms
_WATCHDOG_TIMEOUT = 5.0  # far out; the submission always cancels it
_TABLE_MASK = (1 << 16) - 1  # pre-drawn delay tables, indexed per transaction


def run_cascade(
    sim: Union[Simulator, ReferenceSimulator],
    transactions: int,
    *,
    seed: int = 20_260_808,
    watchdog_every: int = 8,
) -> Dict[str, float]:
    """Drive ``transactions`` synthetic transactions through ``sim``.

    Returns wall-clock metrics; the timed window covers arrival
    pre-scheduling and the whole dispatch, mirroring how the network model
    schedules every client arrival up front and then runs the queue dry.
    """
    rng = random.Random(seed)
    hop_delays = [rng.expovariate(_HOP_RATE) for _ in range(_TABLE_MASK + 1)]
    submit_delays = [rng.expovariate(_SUBMIT_RATE) for _ in range(_TABLE_MASK + 1)]
    arrival_gaps = [rng.expovariate(_ARRIVAL_RATE) for _ in range(transactions)]
    post = sim.post
    schedule = sim.schedule
    submitted = [0]
    timeouts_fired = [0]
    pending = {}
    watchdogs = {}

    def arrive(tx: int) -> None:
        pending[tx] = 2
        base = tx * 4
        post(hop_delays[base & _TABLE_MASK], endorse, tx, 0)
        post(hop_delays[(base + 1) & _TABLE_MASK], endorse, tx, 1)
        if not tx % watchdog_every:
            watchdogs[tx] = schedule(_WATCHDOG_TIMEOUT, timeout, tx)

    def endorse(tx: int, leg: int) -> None:
        post(hop_delays[(tx * 4 + 2 + leg) & _TABLE_MASK], collect, tx)

    def collect(tx: int) -> None:
        remaining = pending[tx] - 1
        if remaining:
            pending[tx] = remaining
        else:
            del pending[tx]
            post(submit_delays[tx & _TABLE_MASK], submit, tx)

    def submit(tx: int) -> None:
        submitted[0] += 1
        handle = watchdogs.pop(tx, None)
        if handle is not None:
            handle.cancel()

    def timeout(tx: int) -> None:
        if watchdogs.pop(tx, None) is not None:
            timeouts_fired[0] += 1

    started = time.perf_counter()
    post_at = sim.post_at
    clock = 0.0
    tx = 0
    for gap in arrival_gaps:
        clock += gap
        post_at(clock, arrive, tx)
        tx += 1
    sim.run_until_empty()
    wall_seconds = time.perf_counter() - started
    events = sim.processed_events
    return {
        "transactions": transactions,
        "events": events,
        "wall_seconds": wall_seconds,
        "events_per_sec": events / wall_seconds if wall_seconds > 0 else 0.0,
        "submitted": submitted[0],
        "timeouts_fired": timeouts_fired[0],
    }


def cascade_cell(engine: str, transactions: int, **kwargs) -> Dict[str, float]:
    """Run the cascade on a fresh engine instance named in :data:`ENGINES`."""
    sim = ENGINES[engine]()
    metrics = run_cascade(sim, transactions, **kwargs)
    metrics["engine"] = engine
    return metrics


def engine_speed(scale: Scale) -> List[Tuple]:
    """Engine-speed rows: the calendar-queue scheduler vs the heapq oracle.

    The body of the ``engine-speed`` entry of
    :data:`repro.bench.experiments.EXPERIMENTS`.  Unlike every other entry this
    experiment sweeps no network cells — it drives the synthetic transaction
    cascade of this module (arrival -> endorsement fan-out -> collection ->
    submission, with cancellable watchdogs) through both the production
    calendar-queue engine and the preserved pre-overhaul heapq engine, and
    reports events/sec for each.  Both engines dispatch the identical event
    sequence, so the ratio isolates scheduler cost.  No runner is involved: the
    cells are wall-clock measurements and must run in-process, uncached.
    ``benchmarks/bench_engine_speed.py`` records the full grid (including an
    8-channel network cell) in ``BENCH_engine_speed.json``.
    """
    transactions = CASCADE_TRANSACTIONS.get(scale.name, CASCADE_TRANSACTIONS["quick"])
    reference = cascade_cell("heapq-reference", transactions)
    calendar = cascade_cell("calendar", transactions)
    baseline = reference["events_per_sec"]
    return [
        (
            metrics["engine"],
            transactions,
            metrics["events"],
            metrics["wall_seconds"],
            metrics["events_per_sec"],
            metrics["events_per_sec"] / baseline if baseline else 0.0,
        )
        for metrics in (reference, calendar)
    ]
