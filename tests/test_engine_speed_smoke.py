"""Smoke guard for the binary-heap event engine (always-on, tier-1).

Drives the endorse/collect/submit cascade of ``engine_cascade.py`` at 30k
transactions through both the production :class:`~repro.sim.engine.Simulator`
(one heap of entry tuples, lazy eviction, batched dispatch) and the preserved
heapq oracle (``reference_engine.py``) and asserts that the two dispatch the
identical schedule.

How fast the engine dispatches it is a wall-clock question,
and a wall-clock number is a ``python3 -m perfbench`` row or it is not in the
tree (``wall_s`` and ``sim.engine.self_s`` on ``ehr-paper`` / ``ehr-8ch``).
"""

from __future__ import annotations

from engine_cascade import run_cascade
from reference_engine import ReferenceSimulator

from repro.sim.engine import Simulator

SMOKE_TRANSACTIONS = 30_000


def test_engine_dispatches_the_reference_schedule():
    reference = run_cascade(ReferenceSimulator(), SMOKE_TRANSACTIONS)
    engine = run_cascade(Simulator(), SMOKE_TRANSACTIONS)

    assert engine["events"] == reference["events"]
    assert engine["submitted"] == reference["submitted"] == SMOKE_TRANSACTIONS
    assert engine["timeouts_fired"] == reference["timeouts_fired"] == 0
