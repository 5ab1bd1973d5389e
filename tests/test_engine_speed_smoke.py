"""Smoke guard for the calendar-queue event engine (always-on, tier-1).

Drives the endorse/collect/submit cascade of ``engine_cascade.py`` at 30k
transactions through both the bucketed :class:`~repro.sim.engine.Simulator`
and the preserved pre-overhaul heapq engine (``reference_engine.py``) and
asserts that the two dispatch the identical schedule.

How much *faster* the calendar engine dispatches it is a wall-clock question,
and a wall-clock number is a ``python3 -m perfbench`` row or it is not in the
tree (``wall_s`` and ``sim.engine.self_s`` on ``ehr-paper`` / ``ehr-8ch``).
"""

from __future__ import annotations

from engine_cascade import run_cascade
from reference_engine import ReferenceSimulator

from repro.sim.engine import Simulator

SMOKE_TRANSACTIONS = 30_000


def test_calendar_engine_dispatches_the_reference_schedule():
    reference = run_cascade(ReferenceSimulator(), SMOKE_TRANSACTIONS)
    calendar = run_cascade(Simulator(), SMOKE_TRANSACTIONS)

    assert calendar["events"] == reference["events"]
    assert calendar["submitted"] == reference["submitted"] == SMOKE_TRANSACTIONS
    assert calendar["timeouts_fired"] == reference["timeouts_fired"] == 0
