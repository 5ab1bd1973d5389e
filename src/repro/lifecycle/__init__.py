"""Transaction lifecycle pipeline: typed events, stage seams, client retries.

The package makes the Execute-Order-Validate transaction lifecycle an explicit,
observable pipeline:

* :mod:`repro.lifecycle.events` — the :class:`LifecycleBus` and the typed
  event stream (SUBMITTED → ENDORSED/ENDORSEMENT_FAILED → ORDERED →
  VALIDATED → COMMITTED/ABORTED) every component emits into, and every
  consumer handles: a handler is handed the transaction itself;
* :mod:`repro.lifecycle.stages` — the stage interfaces the network, channel
  and variant layers are wired through;
* :mod:`repro.lifecycle.retry` — the client retry/resubmission subsystem
  (policy hierarchy, per-client budgets, deployment-wide rate cap) driven by
  ``ABORTED`` events;
* :mod:`repro.lifecycle.tally` — each channel's metrics, counted as its
  attempts end, so a run keeps no transaction it is done with;
* :mod:`repro.lifecycle.recorder` — the chain, kept for a consumer that
  reads it;
* :mod:`repro.lifecycle.pipeline` — the shared build path that assembles
  single- and multi-channel deployments identically.

``pipeline`` imports the network layers, which themselves import this package
for :class:`RetryConfig`; its symbols are therefore re-exported lazily
(PEP 562) to keep the import graph acyclic.
"""

from repro.lifecycle.events import (
    LifecycleBus,
    LifecycleEventType,
    failure_type_of,
)
from repro.lifecycle.retry import (
    RETRY_POLICIES,
    ExponentialJitteredPolicy,
    FixedBackoffPolicy,
    ImmediateRetryPolicy,
    NoRetryPolicy,
    ResubmissionGovernor,
    RetryBudget,
    RetryConfig,
    RetryController,
    RetryPolicy,
    available_retry_policies,
    create_retry_policy,
)
from repro.lifecycle.stages import OrderingStage, ValidationStage

__all__ = [
    "LifecycleBus",
    "LifecycleEventType",
    "failure_type_of",
    "RETRY_POLICIES",
    "ExponentialJitteredPolicy",
    "FixedBackoffPolicy",
    "ImmediateRetryPolicy",
    "NoRetryPolicy",
    "ResubmissionGovernor",
    "RetryBudget",
    "RetryConfig",
    "RetryController",
    "RetryPolicy",
    "available_retry_policies",
    "create_retry_policy",
    "OrderingStage",
    "ValidationStage",
    "build_network",
]


def __getattr__(name):
    if name == "build_network":
        from repro.lifecycle.pipeline import build_network

        return build_network
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
