"""Tests for the client retry/resubmission subsystem.

Unit coverage of the policy hierarchy, budget and governor, plus end-to-end
runs through the full pipeline: automatic resubmission from ``ABORTED``
lifecycle events, lineage stamping, event-count consistency, and the global
rate cap shared across channel slices.
"""

from __future__ import annotations

import random

import pytest

from repro.bench.harness import ExperimentConfig, run_experiment
from repro.errors import ConfigurationError
from repro.lifecycle.retry import (
    ExponentialJitteredPolicy,
    FixedBackoffPolicy,
    ImmediateRetryPolicy,
    NoRetryPolicy,
    ResubmissionGovernor,
    RetryBudget,
    RetryConfig,
    RetryController,
    available_retry_policies,
    create_retry_policy,
)
from repro.network.config import NetworkConfig
from repro.workload.workloads import uniform_workload


def retry_experiment(
    policy: str = "jittered",
    channels: int = 1,
    duration: float = 2.5,
    arrival_rate: float = 60.0,
    zipf_skew: float = 1.4,
    seed: int = 11,
    **retry_kwargs,
) -> ExperimentConfig:
    """A small contended experiment where retries have failures to chase."""
    return ExperimentConfig(
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(
            cluster="C1",
            orgs=2,
            peers_per_org=2,
            clients=2,
            block_size=10,
            database="leveldb",
            channels=channels,
            retry=RetryConfig(policy=policy, **retry_kwargs),
        ),
        arrival_rate=arrival_rate,
        duration=duration,
        zipf_skew=zipf_skew,
        seed=seed,
    )


# -------------------------------------------------------------------- config
def test_retry_config_enabled_needs_a_policy_and_a_positive_budget():
    assert not RetryConfig().enabled
    assert not RetryConfig(policy="jittered", max_retries=0).enabled
    assert RetryConfig(policy="immediate").enabled


@pytest.mark.parametrize(
    "kwargs,fragment",
    [
        ({"policy": "chaotic"}, "unknown retry policy"),
        ({"max_retries": -1}, "max_retries"),
        ({"backoff": -0.1}, "backoff"),
        ({"backoff_factor": 0.5}, "backoff factor"),
        ({"backoff": 1.0, "max_backoff": 0.5}, "max_backoff"),
        ({"budget": -2}, "budget"),
        ({"rate_cap": 0.0}, "rate cap"),
    ],
)
def test_retry_config_validation_rejects_inconsistent_settings(kwargs, fragment):
    with pytest.raises(ConfigurationError, match=fragment):
        RetryConfig(**kwargs).validate()


def test_available_retry_policies_lists_the_four_policies():
    assert available_retry_policies() == ["fixed", "immediate", "jittered", "none"]


def test_create_retry_policy_dispatches_on_the_policy_name():
    assert isinstance(create_retry_policy(RetryConfig(policy="none")), NoRetryPolicy)
    assert isinstance(create_retry_policy(RetryConfig(policy="immediate")), ImmediateRetryPolicy)
    assert isinstance(create_retry_policy(RetryConfig(policy="fixed")), FixedBackoffPolicy)
    assert isinstance(
        create_retry_policy(RetryConfig(policy="jittered")), ExponentialJitteredPolicy
    )


# ------------------------------------------------------------------ policies
def test_no_retry_policy_never_resubmits():
    policy = NoRetryPolicy(RetryConfig(policy="none", max_retries=5))
    assert policy.next_delay(1, random.Random(1)) is None


def test_immediate_policy_resubmits_instantly_up_to_the_retry_cap():
    policy = ImmediateRetryPolicy(RetryConfig(policy="immediate", max_retries=2))
    rng = random.Random(1)
    assert policy.next_delay(1, rng) == 0.0
    assert policy.next_delay(2, rng) == 0.0
    assert policy.next_delay(3, rng) is None


def test_fixed_policy_waits_the_constant_backoff():
    policy = FixedBackoffPolicy(RetryConfig(policy="fixed", max_retries=3, backoff=0.2))
    rng = random.Random(1)
    assert policy.next_delay(1, rng) == 0.2
    assert policy.next_delay(3, rng) == 0.2


def test_jittered_policy_draws_from_a_growing_capped_window():
    config = RetryConfig(
        policy="jittered", max_retries=10, backoff=0.1, backoff_factor=2.0, max_backoff=0.4
    )
    policy = ExponentialJitteredPolicy(config)
    rng = random.Random(7)
    for attempt, window in ((1, 0.1), (2, 0.2), (3, 0.4), (4, 0.4)):
        draws = [policy.next_delay(attempt, rng) for _ in range(50)]
        assert all(0.0 <= delay <= window for delay in draws)
    # The jitter actually spreads the draws (not a constant).
    assert len({policy.next_delay(1, rng) for _ in range(10)}) > 1


# ----------------------------------------------------------- budget/governor
def test_retry_budget_caps_per_client_resubmissions():
    budget = RetryBudget(per_client=2)
    assert budget.try_consume("alice")
    assert budget.try_consume("alice")
    assert not budget.try_consume("alice")
    assert budget.try_consume("bob")
    assert budget.spent("alice") == 2


def test_unlimited_budget_admits_everything():
    budget = RetryBudget(per_client=None)
    assert all(budget.try_consume("alice") for _ in range(100))


def test_governor_token_bucket_denies_then_refills_with_virtual_time():
    governor = ResubmissionGovernor(rate_cap=2.0)
    # Burst of max(1, rate_cap) tokens at time zero.
    assert governor.try_acquire(0.0)
    assert governor.try_acquire(0.0)
    assert not governor.try_acquire(0.0)
    # Half a virtual second refills one token at 2/s.
    assert governor.try_acquire(0.5)
    assert not governor.try_acquire(0.5)
    assert governor.admitted == 3
    assert governor.denied == 2


def test_uncapped_governor_admits_everything():
    governor = ResubmissionGovernor(rate_cap=None)
    assert all(governor.try_acquire(0.0) for _ in range(50))
    assert governor.denied == 0


# ---------------------------------------------------------------- end to end
def test_resubmission_creates_fresh_attempts_with_lineage():
    record = run_experiment(
        retry_experiment("immediate", max_retries=2), record_chain=True
    ).analyses[0].record
    assert record.resubmissions > 0
    retries = [tx for tx in record.transactions if tx.attempt > 0]
    assert len(retries) == record.resubmissions
    first_attempt_ids = {tx.tx_id for tx in record.transactions if tx.attempt == 0}
    for tx in retries:
        # A fresh transaction id per attempt, linked to the first attempt.
        assert tx.origin_tx_id in first_attempt_ids
        assert tx.tx_id != tx.origin_tx_id
        assert tx.origin_id == tx.origin_tx_id


def test_retries_lower_the_client_effective_failure_rate():
    baseline = run_experiment(retry_experiment("none")).analyses[0].metrics
    retried = run_experiment(retry_experiment("jittered", max_backoff=0.25)).analyses[0].metrics
    assert baseline.client_effective_failure_pct == baseline.failure_report.total_failure_pct
    assert retried.resubmissions > 0
    assert retried.client_effective_failure_pct < retried.failure_report.total_failure_pct
    assert retried.client_effective_failure_pct < baseline.client_effective_failure_pct
    assert retried.retry_amplification > 1.0


def test_lifecycle_counts_are_consistent_with_the_record():
    record = run_experiment(
        retry_experiment("immediate", max_retries=1), record_chain=True
    ).analyses[0].record
    counts = record.lifecycle_counts
    # Every attempt (first submissions + resubmissions) emitted SUBMITTED and
    # exactly one of ENDORSED / ENDORSEMENT_FAILED.
    assert counts["submitted"] == len(record.transactions)
    assert counts.get("endorsed", 0) + counts.get("endorsement_failed", 0) == counts["submitted"]
    # Ordered transactions were all validated, and every attempt terminally
    # either committed or aborted.
    assert counts.get("ordered", 0) == counts.get("validated", 0)
    assert counts.get("committed", 0) + counts.get("aborted", 0) == counts["submitted"]
    assert counts.get("aborted", 0) >= record.resubmissions


def test_retry_budget_limits_total_resubmissions_per_client():
    record = (
        run_experiment(retry_experiment("immediate", max_retries=5, budget=3))
        .analyses[0]
        .record
    )
    assert record.retry_budget_denied > 0
    # Two clients with a budget of three resubmissions each.
    assert record.resubmissions <= 6


def test_global_rate_cap_is_shared_across_channels():
    capped = retry_experiment("immediate", channels=2, rate_cap=5.0, arrival_rate=120.0)
    record = run_experiment(capped).analyses[0].record
    assert record.retry_rate_denied > 0
    # The cap bounds admitted resubmissions deployment-wide: at 5/s over the
    # run horizon the admitted count stays far below the denied+admitted sum.
    uncapped = retry_experiment("immediate", channels=2, arrival_rate=120.0)
    uncapped_record = run_experiment(uncapped).analyses[0].record
    assert record.resubmissions < uncapped_record.resubmissions


def test_retry_disabled_keeps_run_records_free_of_retry_state():
    record = run_experiment(retry_experiment("none"), record_chain=True).analyses[0].record
    assert record.retry_policy == "none"
    assert record.resubmissions == 0
    assert record.retries_exhausted == 0
    assert all(tx.attempt == 0 for tx in record.transactions)


def test_rate_denied_resubmissions_do_not_burn_the_client_budget():
    from repro.ledger.block import Transaction
    from repro.lifecycle.events import LifecycleBus, LifecycleEventType
    from repro.sim.engine import Simulator

    class StubClient:
        name = "c0"

        def __init__(self):
            self.resubmitted = []

        def resubmit(self, tx):
            self.resubmitted.append(tx)

    sim, bus = Simulator(), LifecycleBus()
    config = RetryConfig(policy="immediate", max_retries=9, budget=3, rate_cap=1.0)
    controller = RetryController(
        sim=sim,
        bus=bus,
        policy=create_retry_policy(config),
        rng=random.Random(1),
        governor=ResubmissionGovernor(config.rate_cap),
    )
    client = StubClient()
    controller.register(client)
    for index in range(4):
        tx = Transaction(
            tx_id=f"t{index}", client_name="c0", chaincode_name="EHR", function="f"
        )
        bus.emit(LifecycleEventType.ABORTED, tx)
    # One token at t=0: one resubmission is admitted, three are rate-denied —
    # and the rate denials must not consume the client's permanent budget.
    assert controller.resubmissions == 1
    assert controller.rate_denied == 3
    assert controller.budget_denied == 0
    assert controller.budget.spent("c0") == 1
    assert controller.budget.has_remaining("c0")


def test_disabled_retry_configs_share_the_retry_free_cell_hash():
    # Any disabled retry config (policy none with tweaked knobs, or zero
    # retries) describes the same experiment as one that never mentioned
    # retries, so all of them must share one cell hash (and one cache slot).
    base = retry_experiment("none")
    for retry in (
        RetryConfig(policy="none", max_retries=5),
        RetryConfig(policy="jittered", max_retries=0),
        RetryConfig(policy="none", backoff=0.2),
    ):
        variant = retry_experiment("none")
        variant.network.retry = retry
        assert variant.cell_hash() == base.cell_hash()
    enabled = retry_experiment("jittered")
    assert enabled.cell_hash() != base.cell_hash()


def test_repeated_start_clients_keeps_the_one_retry_handler():
    from repro.lifecycle.events import LifecycleEventType
    from repro.lifecycle.pipeline import build_network
    from repro.workload.distributions import make_distribution

    experiment = retry_experiment("immediate", max_retries=2)
    (network,) = build_network(
        config=experiment.network,
        chaincode=experiment.workload.chaincode,
        chaincode_kwargs=experiment.workload.chaincode_kwargs,
        variant="fabric-1.4",
        seed=3,
        record_chain=True,
    ).channels
    for _ in range(2):
        network.start_clients(
            mix=experiment.workload.mix,
            arrival_rate=experiment.arrival_rate,
            duration=1.0,
            key_distribution=make_distribution(1.4),
        )
    # The slice built its one controller with itself: a second handler would
    # double every resubmission (and break the attempts == resubmissions
    # invariant).
    handlers = network.bus._handlers[LifecycleEventType.ABORTED._bus_index]
    retry_handlers = [
        handler
        for handler in handlers
        if isinstance(getattr(handler, "__self__", None), RetryController)
    ]
    assert retry_handlers == [network.retry_controller._on_aborted]
    network.sim.run_until_empty()
    record = network.collect_record(experiment.arrival_rate, 1.0)
    retries = [tx for tx in record.transactions if tx.attempt > 0]
    assert len(retries) == record.resubmissions > 0
