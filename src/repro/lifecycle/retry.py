"""Client retry/resubmission: policies, budgets, the global rate cap.

The paper's headline question — *why do my blockchain transactions fail?* —
matters to clients because failed transactions must be detected and
resubmitted.  This module models exactly that client reaction:

* a :class:`RetryPolicy` hierarchy decides *whether* and *after how long* a
  failed transaction is resubmitted (``none`` / ``immediate`` /
  ``fixed`` backoff / exponential ``jittered`` backoff);
* a :class:`RetryBudget` caps the total resubmissions any single client may
  issue, so one unlucky client cannot flood the network;
* a :class:`ResubmissionGovernor` enforces a deployment-wide resubmission
  rate cap (a virtual-time token bucket), the defence against retry storms;
* the :class:`RetryController` ties the three to the
  :class:`~repro.lifecycle.events.LifecycleBus`: it listens for ``ABORTED``
  events and schedules the originating client's resubmission.

With ``policy="none"`` nothing subscribes, nothing draws randomness and no
simulator event is ever scheduled, keeping such runs bit-identical to the
pre-retry pipeline.
"""

from __future__ import annotations

import dataclasses
import random
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, List, Optional, Type

from repro.errors import ConfigurationError
from repro.lifecycle.events import LifecycleBus, LifecycleEvent, LifecycleEventType
from repro.sim.engine import Simulator

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.network.client_node import ClientNode


@dataclass(frozen=True)
class RetryConfig:
    """Client-side retry behaviour of one deployment (off by default).

    ``policy`` selects the :class:`RetryPolicy`; the remaining knobs
    parameterize it.  ``budget`` limits the resubmissions of each individual
    client; ``rate_cap`` limits resubmissions per simulated second across the
    whole deployment (``None`` disables either cap).
    """

    policy: str = "none"
    max_retries: int = 3
    #: Base delay in seconds for the fixed and jittered backoff policies.
    backoff: float = 0.05
    #: Multiplicative growth of the jittered policy's backoff window.
    backoff_factor: float = 2.0
    #: Upper bound of any single backoff delay in seconds.
    max_backoff: float = 2.0
    #: Per-client resubmission budget (``None`` = unlimited).
    budget: Optional[int] = None
    #: Deployment-wide resubmission rate cap in 1/s (``None`` = uncapped).
    rate_cap: Optional[float] = None

    @property
    def enabled(self) -> bool:
        """True when failed transactions are resubmitted at all."""
        return self.policy != "none" and self.max_retries > 0

    def identity(self) -> Optional[dict]:
        """What this config adds to an experiment cell's identity.

        ``None`` while disabled: no controller, stream or event is ever
        created, so every disabled config — the default, an unused knob tweak
        — describes the same experiment and keeps the cell hash (hence the
        per-repetition seeds and every cached result) it had before the retry
        subsystem existed.
        """
        return dataclasses.asdict(self) if self.enabled else None

    def validate(self) -> None:
        """Raise :class:`ConfigurationError` for inconsistent settings."""
        if self.policy not in RETRY_POLICIES:
            known = ", ".join(available_retry_policies())
            raise ConfigurationError(
                f"unknown retry policy {self.policy!r}; known policies: {known}"
            )
        if self.max_retries < 0:
            raise ConfigurationError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff < 0:
            raise ConfigurationError(f"the retry backoff must be >= 0, got {self.backoff}")
        if self.backoff_factor < 1.0:
            raise ConfigurationError(
                f"the backoff factor must be >= 1, got {self.backoff_factor}"
            )
        if self.max_backoff < self.backoff:
            raise ConfigurationError(
                f"max_backoff={self.max_backoff} must be >= backoff={self.backoff}"
            )
        if self.budget is not None and self.budget < 0:
            raise ConfigurationError(f"the retry budget must be >= 0, got {self.budget}")
        if self.rate_cap is not None and self.rate_cap <= 0:
            raise ConfigurationError(
                f"the resubmission rate cap must be positive, got {self.rate_cap}"
            )


class RetryPolicy:
    """Decides whether (and when) a failed transaction is resubmitted."""

    #: Canonical key in :data:`RETRY_POLICIES`.
    key = "none"

    def __init__(self, config: Optional[RetryConfig] = None) -> None:
        self.config = config if config is not None else RetryConfig(policy=self.key)

    def next_delay(self, attempt: int, rng: random.Random) -> Optional[float]:
        """Delay in seconds before resubmission attempt ``attempt`` (1-based).

        Returns ``None`` when the transaction should be given up instead.
        """
        if attempt > self.config.max_retries:
            return None
        return self._delay(attempt, rng)

    def _delay(self, attempt: int, rng: random.Random) -> Optional[float]:
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(max_retries={self.config.max_retries})"


class NoRetryPolicy(RetryPolicy):
    """Failed transactions are lost — the pre-retry client behaviour."""

    key = "none"

    def next_delay(self, attempt: int, rng: random.Random) -> Optional[float]:
        return None


class ImmediateRetryPolicy(RetryPolicy):
    """Resubmit instantly, up to ``max_retries`` times.

    The most aggressive (and storm-prone) reaction: every failure re-enters
    the pipeline in the very next simulator step, so under contention the
    resubmissions collide with the conflicts that caused them.
    """

    key = "immediate"

    def _delay(self, attempt: int, rng: random.Random) -> float:
        return 0.0


class FixedBackoffPolicy(RetryPolicy):
    """Resubmit after a constant ``backoff`` delay.

    Synchronized backoff: every client that failed in the same block retries
    at (almost) the same instant, which under MVCC contention re-creates the
    conflicting batch one backoff later.
    """

    key = "fixed"

    def _delay(self, attempt: int, rng: random.Random) -> float:
        return self.config.backoff


class ExponentialJitteredPolicy(RetryPolicy):
    """Full-jitter exponential backoff (decorrelated resubmissions).

    The delay of attempt *k* is drawn uniformly from
    ``[0, min(backoff * factor**(k-1), max_backoff)]``, which both spreads the
    resubmissions of simultaneously failed transactions apart and grows the
    window for repeat offenders — the standard cure for retry storms.
    """

    key = "jittered"

    def _delay(self, attempt: int, rng: random.Random) -> float:
        window = min(
            self.config.backoff * self.config.backoff_factor ** (attempt - 1),
            self.config.max_backoff,
        )
        return rng.uniform(0.0, window)


#: All retry policies keyed by their canonical name.
RETRY_POLICIES: Dict[str, Type[RetryPolicy]] = {
    NoRetryPolicy.key: NoRetryPolicy,
    ImmediateRetryPolicy.key: ImmediateRetryPolicy,
    FixedBackoffPolicy.key: FixedBackoffPolicy,
    ExponentialJitteredPolicy.key: ExponentialJitteredPolicy,
}


def available_retry_policies() -> List[str]:
    """Canonical names of all retry policies."""
    return sorted(RETRY_POLICIES)


def create_retry_policy(config: RetryConfig) -> RetryPolicy:
    """Instantiate the policy selected by ``config`` (after validation)."""
    config.validate()
    return RETRY_POLICIES[config.policy](config)


class RetryBudget:
    """Per-client cap on the total number of resubmissions."""

    def __init__(self, per_client: Optional[int]) -> None:
        self.per_client = per_client
        self._spent: Dict[str, int] = {}

    def has_remaining(self, client_name: str) -> bool:
        """True while ``client_name`` still has budget left (consumes nothing)."""
        return self.per_client is None or self._spent.get(client_name, 0) < self.per_client

    def try_consume(self, client_name: str) -> bool:
        """Consume one resubmission from ``client_name``'s budget, if any is left."""
        if not self.has_remaining(client_name):
            return False
        self._spent[client_name] = self._spent.get(client_name, 0) + 1
        return True

    def spent(self, client_name: str) -> int:
        """Resubmissions already charged to ``client_name``."""
        return self._spent.get(client_name, 0)


class ResubmissionGovernor:
    """Deployment-wide resubmission rate cap (virtual-time token bucket).

    Tokens replenish at ``rate_cap`` per simulated second up to a burst of
    ``max(1, rate_cap)``; every resubmission costs one token.  A ``None``
    rate cap admits everything.  Multi-channel deployments share one governor
    across all channel slices, making the cap genuinely global.
    """

    def __init__(self, rate_cap: Optional[float]) -> None:
        self.rate_cap = rate_cap
        self._tokens = max(1.0, rate_cap) if rate_cap is not None else 0.0
        self._last_refill = 0.0
        self.admitted = 0
        self.denied = 0

    def try_acquire(self, now: float) -> bool:
        """Admit one resubmission at virtual time ``now`` if a token is free."""
        if self.rate_cap is None:
            self.admitted += 1
            return True
        burst = max(1.0, self.rate_cap)
        elapsed = max(0.0, now - self._last_refill)
        self._tokens = min(burst, self._tokens + elapsed * self.rate_cap)
        self._last_refill = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            self.admitted += 1
            return True
        self.denied += 1
        return False


class RetryController:
    """Drives automatic client resubmission from the lifecycle event stream.

    One controller serves one Fabric slice (a
    :class:`~repro.network.network.Channel`): it
    subscribes to the slice's bus, and on every ``ABORTED`` event consults the
    policy, the per-client budget and the (possibly shared) governor before
    scheduling ``client.resubmit`` on the simulator.
    """

    def __init__(
        self,
        sim: Simulator,
        bus: LifecycleBus,
        policy: RetryPolicy,
        rng: random.Random,
        budget: Optional[RetryBudget] = None,
        governor: Optional[ResubmissionGovernor] = None,
    ) -> None:
        self.sim = sim
        self.bus = bus
        self.policy = policy
        self.rng = rng
        self.budget = budget if budget is not None else RetryBudget(policy.config.budget)
        self.governor = (
            governor if governor is not None else ResubmissionGovernor(policy.config.rate_cap)
        )
        self._clients: Dict[str, "ClientNode"] = {}
        self.resubmissions = 0
        self.retries_exhausted = 0
        self.budget_denied = 0
        self.rate_denied = 0
        bus.subscribe(LifecycleEventType.ABORTED, self._on_aborted)

    def register(self, client: "ClientNode") -> None:
        """Make ``client`` eligible for resubmission of its failed transactions."""
        self._clients[client.name] = client

    def detach(self) -> None:
        """Stop reacting to the bus (used when a run replaces its controller)."""
        self.bus.unsubscribe(LifecycleEventType.ABORTED, self._on_aborted)

    # -------------------------------------------------------------- reaction
    def _on_aborted(self, event: LifecycleEvent) -> None:
        tx = event.transaction
        client = self._clients.get(tx.client_name)
        if client is None:
            return
        attempt = tx.attempt + 1
        delay = self.policy.next_delay(attempt, self.rng)
        if delay is None:
            self.retries_exhausted += 1
            return
        # Budget is peeked (not consumed) before the governor so that a
        # rate-denied resubmission never burns the client's permanent budget;
        # only an actually issued resubmission consumes both.
        if not self.budget.has_remaining(tx.client_name):
            self.budget_denied += 1
            return
        if not self.governor.try_acquire(self.sim.now):
            self.rate_denied += 1
            return
        self.budget.try_consume(tx.client_name)
        self.resubmissions += 1
        self.sim.post(delay, client.resubmit, tx)

    # ------------------------------------------------------------ inspection
    def stats(self) -> Dict[str, int]:
        """Resubmission bookkeeping for records and reports."""
        return {
            "resubmissions": self.resubmissions,
            "retries_exhausted": self.retries_exhausted,
            "budget_denied": self.budget_denied,
            "rate_denied": self.rate_denied,
        }
