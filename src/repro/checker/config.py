"""Configuration of the online isolation checker.

The default (disabled) configuration installs nothing at all: no bus
subscription, no graph, no per-transaction work — the run is bit-identical to
a build without the :mod:`repro.checker` package.  Because checking only
*observes* the committed history and never influences the simulation, the
configuration is also excluded from experiment cell hashes entirely (see
:meth:`CheckerConfig.identity`): certifying a cell does not change
its identity, its per-repetition seeds, or its results.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class CheckerConfig:
    """Whether and how to certify the committed history of a run.

    ``enabled`` subscribes one streaming :class:`~repro.checker.checker.ChannelChecker`
    per channel slice to the lifecycle bus; ``witness_limit`` caps how many
    concrete anomaly witnesses each channel retains (violations beyond the cap
    are still *counted*, so verdicts never depend on the limit).
    """

    enabled: bool = False
    witness_limit: int = 4

    def identity(self) -> None:
        """Nothing, enabled or not: checking only observes the committed history.

        (Consequence: cached sweep results carry no verdicts, so the sweep
        CLI bypasses the result cache when an isolation check is requested.)
        """
        return None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for unusable witness limits."""
        if self.witness_limit < 1:
            raise ConfigurationError(
                f"the witness limit must be at least 1, got {self.witness_limit}"
            )
