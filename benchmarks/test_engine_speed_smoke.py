"""Smoke guard for the calendar-queue event engine (always-on, tier-1).

A fast version of ``bench_engine_speed.py`` that runs inside the default test
selection and the CI bench-smoke job.  It drives the same endorse/collect/
submit cascade at 30k transactions through both the bucketed
:class:`~repro.sim.engine.Simulator` and the preserved pre-overhaul
:class:`~repro.sim.reference.ReferenceSimulator` and asserts that the two
dispatch the identical schedule.

How much *faster* the calendar engine dispatches it is a wall-clock question,
and wall-clock floors do not belong in tier-1: the 2.5x floor on this cascade
is asserted by the slow bench
(``bench_engine_speed.py::test_calendar_engine_beats_heapq_reference_on_cascade``).
"""

from __future__ import annotations

from repro.bench.enginespeed import cascade_cell

SMOKE_TRANSACTIONS = 30_000


def test_calendar_engine_dispatches_the_reference_schedule():
    reference = cascade_cell("heapq-reference", SMOKE_TRANSACTIONS)
    calendar = cascade_cell("calendar", SMOKE_TRANSACTIONS)

    assert calendar["events"] == reference["events"]
    assert calendar["submitted"] == reference["submitted"] == SMOKE_TRANSACTIONS
    assert calendar["timeouts_fired"] == reference["timeouts_fired"] == 0

