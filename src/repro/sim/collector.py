"""The one place the simulator touches the interpreter's cyclic collector.

A run keeps an attempt only while it is in flight — its metrics come from
the channel tallies (:mod:`repro.lifecycle.tally`) — but its long-lived heap
is still large and acyclic: the genesis population, the endorsers' result
table, the overlays' deltas and the attempts in flight.  CPython's *full*
(oldest-generation) collections re-walk that heap each time its long-lived
part has grown by a quarter, reclaiming nothing.  Measured on ten
alternating ``ehr-paper`` pairs (``python3 -m perfbench --workload ehr-paper
--seconds 6 --trace 0``, seeds 700-709, 2-vCPU box), a run without this
scope was slower on 9 of 10 pairs: median ``wall_s`` 1.996 s against
1.921 s.  :func:`quiet_collector` defers the full passes for the span of a
run.

Young collections stay on.  Short-lived cyclic garbage (bound-method/closure
cycles of finished events) dies young and is reclaimed at the interpreter's
usual cadence: deferring the full passes does not raise peak memory in a run.

What a run leaves behind for a full pass — its own deployment graph, an
observer's span trees — is reclaimed after the scope has ended, by the
interpreter's ordinary schedule.  Runs chained back to back (a sweep's
in-process loop, the repetitions of one experiment) give that schedule no
room between one scope and the next, so a scope that finds a full collection
already owed lets the interpreter run it *before* deferring again: at most
one run's cyclic garbage is ever outstanding, and it is collected when the
heap is smallest.

One thing is retained between runs on purpose: the frozen genesis population
the process holds for its next cell (:func:`repro.ledger.factory.genesis_base`).
The owed pass walks it — 8 ms without it, 17-20 ms over 100,000 keys, against
250-320 ms to build them again; what else a cell made dies by reference count.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from typing import Iterator

#: Oldest-generation threshold installed for the span of a run: the number
#: of middle-generation collections after which a full one may start.  No
#: run gets near it (a paper-scale cell sees a few hundred), and seeing it
#: installed is how a nested scope recognises the enclosing one.
DEFERRED_FULL_COLLECTIONS = 1 << 30


def _run_owed_collection(middle: int, oldest: int) -> None:
    """Let the interpreter run the full collection its own schedule owes.

    Only an allocation that finds the youngest generation over its threshold
    makes CPython consult that schedule (oldest generation over *its*
    threshold, and grown by a quarter since the last full pass — the rule
    that keeps full passes amortised when a sweep retains many results), so
    the threshold is dropped to 1 for the few allocations it takes.  Sets,
    because lists, tuples and dicts are recycled from free lists the
    collector never sees.  An explicit ``gc.collect()`` here would walk the
    whole heap on every chained run, owed or not.
    """
    gc.set_threshold(1, middle, oldest)
    _ = (set(), set(), set())


@contextmanager
def quiet_collector() -> Iterator[None]:
    """Defer full collections until the block exits; young ones stay on.

    Re-entrant (only the outermost scope changes anything) and
    exception-safe (the prior thresholds are restored exactly).  A no-op when
    the host has disabled the collector (``gc.disable()`` or a zero youngest
    threshold): whoever did that owns its state.
    """
    young, middle, oldest = gc.get_threshold()
    if not gc.isenabled() or young == 0 or oldest >= DEFERRED_FULL_COLLECTIONS:
        yield
        return
    try:
        if gc.get_count()[2] > oldest:
            _run_owed_collection(middle, oldest)
        gc.set_threshold(young, middle, DEFERRED_FULL_COLLECTIONS)
        yield
    finally:
        gc.set_threshold(young, middle, oldest)
