"""Unit tests for the FIFO service stations."""

from __future__ import annotations

import pytest

from repro.errors import SimulationError
from repro.sim.resources import ServiceStation


def test_single_server_serializes_jobs(sim):
    station = ServiceStation(sim, name="peer")
    completions = []
    first = station.submit(1.0, completions.append, "first")
    second = station.submit(1.0, completions.append, "second")
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(2.0)
    sim.run_until_empty()
    assert completions == ["first", "second"]


def test_idle_server_starts_immediately(sim):
    station = ServiceStation(sim, name="peer")
    station.submit(1.0, lambda: None)
    sim.run_until_empty()
    assert sim.now == pytest.approx(1.0)
    completion = station.submit(2.0)
    assert completion == pytest.approx(sim.now + 2.0)


def test_multi_server_runs_jobs_concurrently(sim):
    station = ServiceStation(sim, name="endorsers", servers=2)
    first = station.submit(1.0)
    second = station.submit(1.0)
    third = station.submit(1.0)
    assert first == pytest.approx(1.0)
    assert second == pytest.approx(1.0)
    assert third == pytest.approx(2.0)


def test_backlog_reflects_queued_work(sim):
    station = ServiceStation(sim, name="peer")
    assert station.backlog == pytest.approx(0.0)
    station.submit(2.0)
    station.submit(3.0)
    # The single server becomes free only after both jobs have been served.
    assert station.backlog == pytest.approx(5.0)


def test_utilization_bounded_by_one(sim):
    station = ServiceStation(sim, name="peer")
    station.submit(5.0)
    assert station.utilization(horizon=2.0) == pytest.approx(1.0)
    assert station.utilization(horizon=10.0) == pytest.approx(0.5)
    assert station.utilization(horizon=0.0) == 0.0


def test_multi_server_utilization_uses_capacity(sim):
    station = ServiceStation(sim, name="peer", servers=2)
    station.submit(4.0)
    station.submit(4.0)
    assert station.utilization(horizon=4.0) == pytest.approx(1.0)
    assert station.utilization(horizon=8.0) == pytest.approx(0.5)


def test_waiting_time_statistics(sim):
    station = ServiceStation(sim, name="peer")
    station.submit(1.0)
    station.submit(1.0)
    assert station.jobs_served == 2
    assert station.waiting_total / station.jobs_served == pytest.approx(0.5)
    assert station.busy_time / station.jobs_served == pytest.approx(1.0)


def test_negative_service_time_rejected(sim):
    station = ServiceStation(sim, name="peer")
    with pytest.raises(SimulationError):
        station.submit(-1.0)


def test_zero_servers_rejected(sim):
    with pytest.raises(SimulationError):
        ServiceStation(sim, name="peer", servers=0)


def test_jobs_served_counter(sim):
    station = ServiceStation(sim, name="peer")
    for _ in range(5):
        station.submit(0.1)
    assert station.jobs_served == 5
    assert station.busy_time == pytest.approx(0.5)


def test_completion_respects_current_time(sim):
    station = ServiceStation(sim, name="peer")
    sim.schedule(3.0, lambda: None)
    sim.run_until_empty()
    completion = station.submit(1.0)
    assert completion == pytest.approx(4.0)
