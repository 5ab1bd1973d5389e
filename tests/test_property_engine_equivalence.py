"""Differential testing: the production engine vs the reference heapq engine.

The property replays a random program of schedule / post / cancel /
run-until operations — including callback chains that schedule during the
run, far-future timers, and zero-delay and same-time collisions — against
both :class:`repro.sim.engine.Simulator` and the preserved pre-overhaul ``ReferenceSimulator`` (``reference_engine.py``),
and asserts the two produce the *exact same trace*: identical callback
order, identical clock values (float-equal, no tolerance), identical
processed counts, and identical live pending counts after every operation
and inside every callback.  A ``post_series`` — which queues one entry at a
time — is replayed on the reference as the ``post_at`` loop it stands for,
posted from the program or from inside a running callback.

Together with ``tests/test_golden_lifecycle.py`` (bit-identical golden
records through the full network pipeline) this is the evidence that the
production heap — with its lazy eviction of cancelled entries, its
same-timestamp batches and its one-at-a-time series — preserves the ``(time,
sequence)`` tie-break contract.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st
from reference_engine import ReferenceSimulator

from repro.sim.engine import Simulator

#: Delays mixing collisions (repeated values), nanosecond to second gaps,
#: far-future timers, and zero.
DELAYS = st.sampled_from(
    [0.0, 1e-9, 0.0005, 0.001, 0.25, 0.2501, 1.0, 1.0, 5.0, 123.456, 1e6]
)
#: Gaps between consecutive times of a series, collisions (0.0) included.
SERIES_GAPS = st.lists(DELAYS, min_size=0, max_size=6)

OPERATIONS = st.one_of(
    st.tuples(st.just("schedule"), DELAYS),
    st.tuples(st.just("post"), DELAYS),
    st.tuples(st.just("schedule_at"), DELAYS),
    st.tuples(st.just("chain"), DELAYS, st.integers(min_value=0, max_value=3), DELAYS),
    st.tuples(st.just("cancel"), st.integers(min_value=0, max_value=100)),
    st.tuples(st.just("run_until"), DELAYS),
    st.just(("run_all",)),
    st.tuples(st.just("series"), DELAYS, SERIES_GAPS),
    st.tuples(st.just("series_in_callback"), DELAYS, DELAYS, SERIES_GAPS),
)

PROGRAMS = st.lists(OPERATIONS, min_size=1, max_size=50)


def execute(engine, program, live_count):
    """Run ``program`` on ``engine`` and return its full observable trace."""
    trace = []
    handles = []

    def note(label):
        trace.append((label, engine.now, live_count(engine)))

    def chain(label, depth, delay):
        note(label)
        if depth > 0:
            engine.post(delay, chain, label + "'", depth - 1, delay)

    def series(label, offset, gaps):
        times = [engine.now + offset]
        for gap in gaps:
            times.append(times[-1] + gap)
        fired = iter(range(len(times)))

        def callback():
            note(f"{label}.{next(fired)}")

        if isinstance(engine, ReferenceSimulator):
            for time in times:
                engine.post_at(time, callback)
        else:
            engine.post_series(times, callback)

    for step, operation in enumerate(program):
        kind = operation[0]
        if kind == "schedule":
            handles.append(engine.schedule(operation[1], note, f"s{step}"))
        elif kind == "post":
            engine.post(operation[1], note, f"p{step}")
        elif kind == "schedule_at":
            engine.schedule_at(engine.now + operation[1], note, f"a{step}")
        elif kind == "chain":
            engine.post(operation[1], chain, f"c{step}", operation[2], operation[3])
        elif kind == "cancel":
            if handles:
                handles[operation[1] % len(handles)].cancel()
        elif kind == "series":
            series(f"q{step}", operation[1], operation[2])
        elif kind == "series_in_callback":
            engine.post(operation[1], series, f"r{step}", operation[2], operation[3])
        elif kind == "run_until":
            engine.run(until=engine.now + operation[1])
            trace.append(
                ("pause", live_count(engine), engine.now, engine.processed_events)
            )
        else:  # run_all
            engine.run_until_empty()
        trace.append(("step", live_count(engine), engine.now, engine.processed_events))
    engine.run_until_empty()
    trace.append(("end", live_count(engine), engine.now, engine.processed_events))
    return trace


@settings(max_examples=300, deadline=None)
@given(program=PROGRAMS)
def test_engine_is_trace_equivalent_to_reference_heapq(program):
    engine_trace = execute(Simulator(), program, lambda engine: engine.pending_events)
    reference_trace = execute(
        ReferenceSimulator(), program, lambda engine: engine.live_pending_events()
    )
    assert engine_trace == reference_trace
