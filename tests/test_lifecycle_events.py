"""Unit tests for the lifecycle event bus and the typed event stream."""

from __future__ import annotations

from repro.bench.harness import ExperimentConfig
from repro.core.failures import FAILURE_OF_CODE, FailureType
from repro.faults.spec import FaultConfig
from repro.ledger.block import Transaction, ValidationCode
from repro.lifecycle.events import LifecycleBus, LifecycleEventType, failure_type_of
from repro.lifecycle.pipeline import build_network
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.workload.distributions import make_distribution
from repro.workload.workloads import uniform_workload

TERMINAL = (LifecycleEventType.COMMITTED, LifecycleEventType.ABORTED)


def make_tx(code=None, block_number=None, conflicting_block=None, attempt=0) -> Transaction:
    tx = Transaction(
        tx_id="tx-1",
        client_name="client-0",
        chaincode_name="EHR",
        function="f",
        attempt=attempt,
    )
    tx.validation_code = code
    tx.block_number = block_number
    tx.conflicting_block = conflicting_block
    return tx


# ----------------------------------------------------------------------- bus
def test_bus_hands_each_handler_the_transactions_of_its_type():
    bus = LifecycleBus()
    aborted, committed = [], []
    bus.handle(LifecycleEventType.ABORTED, aborted.append)
    bus.handle(LifecycleEventType.COMMITTED, committed.append)
    first, second = make_tx(), make_tx()
    bus.emit(LifecycleEventType.ABORTED, first)
    bus.emit(LifecycleEventType.COMMITTED, second)
    bus.emit(LifecycleEventType.SUBMITTED, first)
    assert aborted == [first] and aborted[0] is first
    assert committed == [second] and committed[0] is second


def test_bus_calls_the_handlers_of_one_type_in_registration_order():
    bus = LifecycleBus()
    seen = []
    for name in ("tally", "recorder", "checker", "retry"):
        bus.handle(LifecycleEventType.ABORTED, lambda tx, name=name: seen.append(name))
    bus.emit(LifecycleEventType.ABORTED, make_tx())
    assert seen == ["tally", "recorder", "checker", "retry"]


def test_a_handler_registered_during_an_emission_hears_the_next_one():
    bus = LifecycleBus()
    seen = []

    def first(tx):
        seen.append("first")
        if len(seen) == 1:
            bus.handle(LifecycleEventType.SUBMITTED, lambda tx: seen.append("late"))

    bus.handle(LifecycleEventType.SUBMITTED, first)
    bus.emit(LifecycleEventType.SUBMITTED, make_tx())
    bus.emit(LifecycleEventType.SUBMITTED, make_tx())
    assert seen == ["first", "first", "late"]
    assert bus.count(LifecycleEventType.SUBMITTED) == 2


def test_bus_counts_every_emitted_event():
    bus = LifecycleBus()
    for _ in range(3):
        bus.emit(LifecycleEventType.SUBMITTED, make_tx())
    bus.emit(LifecycleEventType.COMMITTED, make_tx())
    assert bus.count(LifecycleEventType.SUBMITTED) == 3
    assert bus.count(LifecycleEventType.COMMITTED) == 1
    assert bus.count(LifecycleEventType.ABORTED) == 0
    assert bus.counts_by_name() == {"committed": 1, "submitted": 3}


# ----------------------------------------------------------- failure mapping
def test_failure_type_of_returns_none_for_valid_and_unvalidated():
    assert failure_type_of(make_tx(ValidationCode.VALID)) is None
    assert failure_type_of(make_tx(None)) is None


def test_failure_type_of_splits_mvcc_by_conflicting_block():
    intra = make_tx(ValidationCode.MVCC_READ_CONFLICT, block_number=5, conflicting_block=5)
    inter = make_tx(ValidationCode.MVCC_READ_CONFLICT, block_number=5, conflicting_block=3)
    unknown = make_tx(ValidationCode.MVCC_READ_CONFLICT, block_number=5)
    assert failure_type_of(intra) is FailureType.MVCC_INTRA_BLOCK
    assert failure_type_of(inter) is FailureType.MVCC_INTER_BLOCK
    assert failure_type_of(unknown) is FailureType.MVCC_INTER_BLOCK


def test_failure_type_of_maps_every_terminal_code():
    expected = {
        ValidationCode.ENDORSEMENT_POLICY_FAILURE: FailureType.ENDORSEMENT_POLICY,
        ValidationCode.PHANTOM_READ_CONFLICT: FailureType.PHANTOM_READ,
        ValidationCode.ABORTED_BY_REORDERING: FailureType.ORDERING_ABORT,
        ValidationCode.EARLY_ABORT: FailureType.EARLY_ABORT,
        ValidationCode.CROSS_CHANNEL_ABORT: FailureType.CROSS_CHANNEL_ABORT,
    }
    for code, failure in expected.items():
        assert failure_type_of(make_tx(code)) is failure
    # The table behind it is total: every code but VALID names a class, so no
    # component can stamp a code the analysis would not know how to report.
    assert set(FAILURE_OF_CODE) == set(ValidationCode) - {ValidationCode.VALID}
    assert all(failure_type_of(make_tx(code)) is FAILURE_OF_CODE[code] for code in FAILURE_OF_CODE)


# ------------------------------------------------------ the per-attempt law
def test_every_attempt_is_submitted_first_and_terminates_once_at_its_end_time():
    """On 4 coupled channels with faults and jittered retries, each attempt's
    first emission is its one ``SUBMITTED``, it reaches exactly one
    ``COMMITTED`` or ``ABORTED``, ``tx.committed_at`` is the clock there, and
    every emission's ``tx.channel`` is the label of the channel it is on."""
    config = ExperimentConfig(
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            channels=4,
            cross_channel_rate=0.1,
            faults=FaultConfig(
                peer_crash_rate=0.05,
                orderer_outages=((0.8, 0.4),),
                endorsement_loss_rate=0.02,
            ),
            retry=RetryConfig(policy="jittered", max_retries=3),
        ),
        arrival_rate=240.0,
        duration=2.0,
        seed=11,
    )
    network = build_network(
        config.network,
        config.workload.chaincode,
        config.variant,
        chaincode_kwargs=config.workload.chaincode_kwargs,
        seed=11,
    )
    history = {}
    problems = []

    def hear(channel, event_type):
        def handler(tx):
            where = f"channel {channel.index} tx {tx.tx_id}"
            seen = history.setdefault((channel.index, tx.tx_id), [])
            # SUBMITTED exactly when nothing was emitted for the attempt yet.
            first = not seen
            if tx.channel != channel.label:
                problems.append(f"{where}: {event_type.value} with tx.channel {tx.channel}")
            if (event_type is LifecycleEventType.SUBMITTED) != first:
                problems.append(f"{where}: {event_type.value} after {[e.value for e in seen]}")
            if event_type in TERMINAL and tx.committed_at != network.sim.now:
                problems.append(
                    f"{where}: {event_type.value} at {network.sim.now} "
                    f"with committed_at {tx.committed_at}"
                )
            seen.append(event_type)

        return handler

    for channel in network.channels:
        for event_type in LifecycleEventType:
            channel.bus.handle(event_type, hear(channel, event_type))
    record = network.run(
        config.workload.mix, config.arrival_rate, config.duration, make_distribution(1.0)
    )
    ends = []
    for (channel, tx_id), seen in history.items():
        terminal = [event_type for event_type in seen if event_type in TERMINAL]
        if len(terminal) != 1:
            problems.append(f"channel {channel} tx {tx_id}: terminal events {terminal}")
        ends.extend(terminal)
    assert not problems, "\n".join(problems[:20])
    assert len(history) == record.submitted_count
    # The cell exercises both ends, and aborts that are retried.
    assert set(ends) == set(TERMINAL)
    assert record.resubmissions > 0


def test_a_one_channel_deployment_stamps_no_channel_on_any_attempt():
    """Retried attempts included: a transaction of a one-channel run has no label."""
    config = ExperimentConfig(
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(
            cluster="C1",
            database="leveldb",
            block_size=10,
            retry=RetryConfig(policy="jittered", max_retries=3),
        ),
        arrival_rate=240.0,
        duration=2.0,
        seed=11,
    )
    network = build_network(
        config.network,
        config.workload.chaincode,
        config.variant,
        chaincode_kwargs=config.workload.chaincode_kwargs,
        seed=11,
    )
    (channel,) = network.channels
    assert channel.label is None
    labels = {}
    for event_type in LifecycleEventType:
        channel.bus.handle(
            event_type, lambda tx, event_type=event_type: labels.setdefault(tx.channel, event_type)
        )
    record = network.run(
        config.workload.mix, config.arrival_rate, config.duration, make_distribution(1.0)
    )
    assert labels.keys() == {None}
    assert record.resubmissions > 0
