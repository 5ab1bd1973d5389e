"""Discrete-event simulation substrate.

This package contains the small, self-contained discrete-event simulation (DES)
engine on which the Fabric network model is built: a calendar-queue scheduler
with a virtual clock (:mod:`repro.sim.engine`), an opt-in engine profiler
(:mod:`repro.sim.profile`), single-server FIFO service stations used to model
peers and the ordering service (:mod:`repro.sim.resources`), seeded
random-number streams (:mod:`repro.sim.rng`), online statistics accumulators
(:mod:`repro.sim.stats`) and the collector policy every run path enters
(:mod:`repro.sim.collector`).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.profile import EngineProfiler
from repro.sim.resources import ServiceStation
from repro.sim.rng import RandomStreams
from repro.sim.stats import OnlineStats, TimeWeightedStats

__all__ = [
    "Event",
    "Simulator",
    "EngineProfiler",
    "ServiceStation",
    "RandomStreams",
    "OnlineStats",
    "TimeWeightedStats",
]
