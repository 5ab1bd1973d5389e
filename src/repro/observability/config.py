"""Configuration of the observability subsystem (tracing + metrics).

The default (disabled) configuration installs nothing at all: no bus
subscription, no sampler event, no profiler — the run is bit-identical to a
build without the :mod:`repro.observability` package.  Because observation
never influences the simulation, the configuration is also excluded from
experiment cell hashes entirely (see :meth:`ObservabilityConfig.identity`):
tracing a cell does not change its identity, its per-repetition seeds, or its
results.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class ObservabilityConfig:
    """What to observe during a run (both off by default).

    ``trace`` materializes one span tree per transaction attempt from the
    lifecycle event stream; ``metrics`` runs the sim-time sampler and the
    engine profiler.  ``sample_interval`` is the sampler tick in simulated
    seconds.
    """

    trace: bool = False
    metrics: bool = False
    sample_interval: float = 0.25

    @property
    def enabled(self) -> bool:
        """True when any observer must be installed."""
        return self.trace or self.metrics

    def identity(self) -> None:
        """Nothing, enabled or not: observation never influences the simulation.

        Tracing a cell must keep its identity, its per-repetition seeds and
        its results bit-identical to the unobserved cell.  (Consequence:
        cached sweep results carry no trace data, so the sweep CLI bypasses
        the result cache when an export is requested.)
        """
        return None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for unusable sampler intervals."""
        if not math.isfinite(self.sample_interval) or self.sample_interval <= 0:
            raise ConfigurationError(
                f"the sample interval must be a positive finite number, "
                f"got {self.sample_interval}"
            )
