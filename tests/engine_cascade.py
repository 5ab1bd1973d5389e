"""A synthetic transaction cascade that any engine can be driven through.

The cascade models the hot event pattern of a Fabric cell without the
chaincode/ledger work: every transaction is one pre-scheduled arrival that
fans out to two endorsement hops, two response collections and one ordering
submission (six events per transaction), and every eighth transaction arms a
cancellable endorsement watchdog that the submission cancels — exactly the
schedule / post / cancel mix the network model produces.

All delays are pre-drawn from one seeded generator, so the production
calendar-queue engine (:class:`repro.sim.engine.Simulator`) and the heapq
oracle (``reference_engine.ReferenceSimulator``), which dispatch in identical
``(time, sequence)`` order, are handed the identical workload event for event.
The driver reports counts only: how fast the engine dispatches is measured by
``python3 -m perfbench`` (``wall_s``, ``sim.engine.self_s``).
"""

from __future__ import annotations

import random
from typing import Dict

_ARRIVAL_RATE = 5_000.0  # transactions per simulated second
_HOP_RATE = 1_000.0  # endorsement/collection hops: mean 1 ms
_SUBMIT_RATE = 4_000.0  # ordering submission hop: mean 0.25 ms
_WATCHDOG_TIMEOUT = 5.0  # far out; the submission always cancels it
_TABLE_MASK = (1 << 16) - 1  # pre-drawn delay tables, indexed per transaction
_WATCHDOG_EVERY = 8  # every eighth transaction arms a watchdog
_SEED = 20_260_808


def run_cascade(sim, transactions: int) -> Dict[str, int]:
    """Drive ``transactions`` synthetic transactions through the engine ``sim``.

    Every arrival is scheduled up front and the queue is then run dry,
    mirroring how the network model schedules its client arrivals.
    """
    rng = random.Random(_SEED)
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
        if not tx % _WATCHDOG_EVERY:
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

    post_at = sim.post_at
    clock = 0.0
    tx = 0
    for gap in arrival_gaps:
        clock += gap
        post_at(clock, arrive, tx)
        tx += 1
    sim.run_until_empty()
    return {
        "events": sim.processed_events,
        "submitted": submitted[0],
        "timeouts_fired": timeouts_fired[0],
    }
