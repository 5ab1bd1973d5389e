"""Deterministic fault injection: chaos profiles, schedules and control.

The subsystem extends the paper's *healthy-network* failure study to degraded
conditions — peers crash, endorsers stall, orderers blip, channels partition,
endorsements get lost — while preserving the reproduction's core guarantee:
every run is deterministic and cacheable.

* :mod:`repro.faults.spec` — :class:`FaultConfig` (the declarative chaos
  profile carried by :class:`~repro.network.config.NetworkConfig`) and the
  ``--fault-spec`` JSON / inline-DSL parsers;
* :mod:`repro.faults.schedule` — :class:`FaultSchedule`, which materializes
  the profile into a sorted timeline of typed :class:`FaultInjection` events
  from one seeded RNG stream;
* :mod:`repro.faults.controller` — :class:`FaultController`, which replays
  the timeline on the shared simulator clock and answers the availability
  queries of clients, orderers and peers.

The induced failures surface as three new classes —
``PEER_UNAVAILABLE`` (fail-fast proposal to a crashed/partitioned peer),
``ENDORSEMENT_TIMEOUT`` (lost or stalled endorsements trip the client's
watchdog) and ``ORDERER_UNAVAILABLE`` (submission during an outage window) —
which flow through the taxonomy, metrics, analyzer and recommendation
engine like the paper's own failure types, and through the ``ABORTED``
lifecycle event into the client retry subsystem (retries are the natural
mitigation; the ``fault-retry`` experiment measures how much goodput they
recover under chaos).
"""

from repro.faults.controller import FaultController
from repro.faults.schedule import FaultInjection, FaultKind, FaultSchedule
from repro.faults.spec import (
    FAULT_KINDS,
    FaultConfig,
    available_fault_kinds,
    fault_config_from_dsl,
    fault_config_from_json,
    fault_config_summary,
    parse_fault_spec,
)

__all__ = [
    "FAULT_KINDS",
    "FaultConfig",
    "FaultController",
    "FaultInjection",
    "FaultKind",
    "FaultSchedule",
    "available_fault_kinds",
    "fault_config_from_dsl",
    "fault_config_from_json",
    "fault_config_summary",
    "parse_fault_spec",
]
