"""Online isolation checking of committed transaction histories.

An opt-in streaming checker (:class:`~repro.checker.checker.IsolationChecker`)
handles each channel's lifecycle bus, incrementally maintains the
start-ordered serialization graph of the committed history, and certifies or
refutes serializability and snapshot isolation per channel — with a concrete
anomaly witness (the offending dependency cycle) on refutation.  Histories
can also be exported and re-checked offline (:mod:`repro.checker.history`,
the ``repro check`` CLI verb).
"""

from repro.checker.checker import (
    AnomalyWitness,
    ChannelChecker,
    ChannelIsolation,
    IsolationChecker,
    IsolationReport,
    WitnessEdge,
    merge_isolation_reports,
)
from repro.checker.config import CheckerConfig

__all__ = [
    "AnomalyWitness",
    "ChannelChecker",
    "ChannelIsolation",
    "CheckerConfig",
    "IsolationChecker",
    "IsolationReport",
    "WitnessEdge",
    "merge_isolation_reports",
]
