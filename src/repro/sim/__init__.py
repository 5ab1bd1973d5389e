"""Discrete-event simulation substrate.

This package contains the small, self-contained discrete-event simulation (DES)
engine on which the Fabric network model is built: a scheduler on one binary
heap with a virtual clock (:mod:`repro.sim.engine`), an opt-in engine profiler
(:mod:`repro.sim.profile`), single-server FIFO service stations used to model
peers and the ordering service (:mod:`repro.sim.resources`), seeded
random-number streams (:mod:`repro.sim.rng`), sample statistics
(:mod:`repro.sim.stats`) and the collector policy every run path enters
(:mod:`repro.sim.collector`).
"""

from repro.sim.engine import Event, Simulator
from repro.sim.profile import EngineProfiler
from repro.sim.resources import ServiceStation
from repro.sim.rng import RandomStreams

__all__ = [
    "Event",
    "Simulator",
    "EngineProfiler",
    "ServiceStation",
    "RandomStreams",
]
