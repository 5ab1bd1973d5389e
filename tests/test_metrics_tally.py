"""The tally against the parse: a run's metrics without its chain.

Every metric comes from the per-channel tally (``repro.lifecycle.tally``),
kept as each attempt ends, and an unrecorded run keeps no transaction it is
done with.  The reference is the paper's parse of the chain —
``metrics_oracle`` walks a *recorded* run's transactions and ledgers — and
every :class:`~repro.core.metrics.ExperimentMetrics` field, the order of the
failure classes, the conflict keys and the read-only share must equal it
exactly, aggregate and per channel.  And the fold is a function of the bag
of samples: no order of the closed tallies, and no split of one channel's
attempts among several tallies, moves a field.
"""

from __future__ import annotations

import dataclasses
import gc
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from metrics_oracle import parse
from test_sharded_execution import assert_computes, plan_free, unrecorded

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.core.failures import FailureType
from repro.core.metrics import ExperimentMetrics
from repro.faults.spec import FaultConfig
from repro.ledger.block import EndorsementResponse, Transaction
from repro.ledger.ledger import Ledger
from repro.lifecycle import tally as tally_module
from repro.lifecycle.events import LifecycleBus
from repro.lifecycle.retry import RetryConfig
from repro.network.config import NetworkConfig
from repro.sim.shard import ExecutionConfig
from repro.workload.workloads import uniform_workload

FIELDS = [field.name for field in dataclasses.fields(ExperimentMetrics)]


def cell(workload="EHR", variant="fabric-1.4", rate=120.0, duration=3.0, seed=7, **network):
    options = dict(cluster="C1", database="leveldb", block_size=10)
    options.update(network)
    return ExperimentConfig(
        variant=variant,
        workload=uniform_workload(workload, **({"patients": 40} if workload == "EHR" else {})),
        network=NetworkConfig(**options),
        arrival_rate=rate,
        duration=duration,
        zipf_skew=1.0,
        seed=seed,
    )


#: A small faulted cell in which proposals still in flight when their attempt
#: aborted execute afterwards — 30 attempts get their first DB-call stamp
#: after their terminal event.
LATE_STAMP_CELL = cell(
    cluster="C2",
    rate=100.0,
    duration=2.0,
    seed=3,
    faults=FaultConfig(peer_crash_rate=0.3, endorsement_loss_rate=0.02),
)

CELLS = {
    "EHR/1-channel": cell(),
    "EHR/4-channel-cross": cell(rate=240.0, channels=4, cross_channel_rate=0.05),
    "EHR/read-only-skip+client-check": cell(submit_read_only=False, client_side_check=True),
    "EHR/faults+jittered-retry": cell(
        cluster="C2",
        rate=150.0,
        seed=19,
        faults=FaultConfig(
            peer_crash_rate=0.05,
            endorser_slowdown_rate=0.1,
            orderer_outages=((0.8, 0.4),),
            endorsement_loss_rate=0.02,
        ),
        retry=RetryConfig(policy="jittered", max_retries=3),
    ),
    "SCM/fabric++": cell("SCM", "fabric++", cluster="C2", seed=11),
    "EHR/fabricsharp": cell(variant="fabricsharp"),
    "EHR/streamchain": cell(variant="streamchain", rate=60.0),
    "EHR/late-stamps": LATE_STAMP_CELL,
}


def assert_metrics_equal(where: str, actual: ExperimentMetrics, expected: ExperimentMetrics):
    for name in FIELDS:
        assert getattr(actual, name) == getattr(expected, name), f"{where}: {name}"
    # Dict equality ignores order; the failure classes are reported first seen first.
    assert list(actual.failure_report.counts.items()) == list(
        expected.failure_report.counts.items()
    ), f"{where}: failure order"


def assert_matches_the_parse(analysis, reference):
    expected = parse(reference)
    assert_metrics_equal("aggregate", analysis.metrics, expected.metrics)
    assert [channel.index for channel in analysis.channel_analyses] == list(expected.channels)
    for channel in analysis.channel_analyses:
        assert_metrics_equal(f"channel {channel.index}", channel.metrics,
                             expected.channels[channel.index])
    assert analysis.conflicting_keys == expected.conflicting_keys
    assert analysis.read_only_share == expected.read_only_share


@pytest.mark.parametrize("name", list(CELLS))
def test_the_tally_is_the_parse_of_the_recorded_chain(name):
    config = CELLS[name]
    recorded = run_repetition(config, 0, record_chain=True)
    assert recorded.metrics.submitted_transactions > 100
    assert_matches_the_parse(recorded, recorded)
    # Recording changes nothing the run computes.
    unrecorded = run_repetition(config, 0)
    assert unrecorded.record.chain is None
    assert_matches_the_parse(unrecorded, recorded)


def test_a_sharded_cell_is_the_parse_of_its_shared_clock_twin():
    config = cell(rate=400.0, channels=8, execution=ExecutionConfig(shard_workers=0))
    sharded = run_repetition(config, 0)
    assert sharded.record.execution == "sharded" and sharded.record.shard_count == 8
    recorded = run_repetition(config, 0, record_chain=True)
    assert recorded.record.execution == "shared-clock"
    assert_matches_the_parse(sharded, recorded)
    default = run_repetition(
        config.with_overrides(
            network=config.network.copy(execution=ExecutionConfig(shard_workers=1))
        ),
        0,
    )
    assert default.record.execution == "sharded"
    assert_computes(plan_free(sharded.record), unrecorded(recorded.record))
    assert_computes(plan_free(default.record), unrecorded(recorded.record))


def test_late_first_executions_join_their_attempt(monkeypatch):
    """A proposal in flight when its attempt aborted still stamps the attempt.

    Taken at the terminal event alone, the call latencies of those attempts
    would be missing from ``function_call_latency_ms``.
    """
    late = []
    stamp = tally_module.ChannelTally.late_stamp

    def spy(self, tx):
        late.append(tx.tx_id in self._unstamped)
        stamp(self, tx)

    monkeypatch.setattr(tally_module.ChannelTally, "late_stamp", spy)
    recorded = run_repetition(LATE_STAMP_CELL, 0, record_chain=True)
    assert late.count(True) == 30
    expected = parse(recorded).metrics
    for analysis in (recorded, run_repetition(LATE_STAMP_CELL, 0)):
        assert analysis.metrics.function_call_latency_ms == expected.function_call_latency_ms
        assert analysis.metrics.stage_latency == expected.stage_latency


def test_an_unrecorded_run_keeps_no_transaction():
    """The memory proxy: not one attempt or endorsement outlives the run."""
    kinds = (Transaction, EndorsementResponse)
    before = {id(obj) for obj in gc.get_objects() if isinstance(obj, kinds)}
    analysis = run_repetition(cell(cluster="C2"), 0)
    assert analysis.metrics.submitted_transactions > 300
    live = [obj for obj in gc.get_objects() if isinstance(obj, kinds) and id(obj) not in before]
    assert len(live) == 0


# ------------------------------------------------------ the fold is a bag fold
#: The counts a closed tally adds up, besides its attempts (one per row).
COUNTS = (
    "read_only", "skipped", "appended", "committed", "blocks",
    "cross_channel_aborted", "logical_requests", "committed_requests",
)
OPERATIONS = ("GetState", "PutState", "GetStateByRange")
#: Samples over eleven orders of magnitude, so a plain sum would round by order.
SAMPLE = st.floats(min_value=1e-6, max_value=1e5)
ROW = st.lists(st.one_of(st.just(math.nan), SAMPLE), min_size=tally_module._ROW,
               max_size=tally_module._ROW)
ATTEMPT = st.tuples(ROW, st.dictionaries(st.sampled_from(OPERATIONS), SAMPLE))
COUNTER = st.dictionaries(st.sampled_from(list(FailureType)), st.integers(1, 9), max_size=3)
KEYS = st.dictionaries(st.sampled_from(["k0", "k1", "k2", "k3"]), st.integers(1, 9), max_size=3)


def closed(attempts, counts, in_block, early, keys, last_commit):
    """A closed tally holding exactly these attempts and counts."""
    tally = tally_module.ChannelTally(LifecycleBus(), Ledger(keep_blocks=False)).close()
    tally.attempts = len(attempts)
    for row, calls in attempts:
        tally.rows.extend(array("d", row))
        for operation, seconds in calls.items():
            tally.calls.setdefault(operation, array("d")).append(seconds)
    for name, count in counts.items():
        setattr(tally, name, count)
    tally.in_block, tally.early, tally.conflicting_keys = in_block, early, keys
    tally.last_commit = last_commit
    return tally


@st.composite
def channel(draw):
    """The parts of one closed tally, as :func:`closed` takes them."""
    return (
        draw(st.lists(ATTEMPT, max_size=12)),
        {name: draw(st.integers(0, 40)) for name in COUNTS},
        draw(COUNTER),
        draw(COUNTER),
        draw(KEYS),
        draw(st.floats(min_value=0.0, max_value=1e3)),
    )


def split(draw, parts, count):
    """``count`` cut into ``parts`` non-negative summands."""
    cuts = sorted(draw(st.lists(st.integers(0, count), min_size=parts - 1, max_size=parts - 1)))
    return [high - low for low, high in zip([0] + cuts, cuts + [count])]


def split_counter(draw, parts, counter):
    """``counter`` cut into ``parts`` counters that add up to it."""
    shares = [{} for _ in range(parts)]
    for key, count in counter.items():
        for share, amount in zip(shares, split(draw, parts, count)):
            if amount:
                share[key] = amount
    return shares


@settings(max_examples=150, deadline=None)
@given(st.lists(channel(), min_size=1, max_size=4), st.data())
def test_the_fold_is_a_function_of_the_bag_of_samples(channels, data):
    folded = tally_module.fold([closed(*parts) for parts in channels])
    # Any order of the closed tallies: every field stays (the failure classes
    # are a dict, compared without their first-seen order).
    order = data.draw(st.permutations(range(len(channels))))
    assert tally_module.fold([closed(*channels[index]) for index in order]) == folded
    # One channel's attempts split among several tallies, in any assignment,
    # its counts cut into summands: every field stays.
    attempts, counts, in_block, early, keys, last_commit = channels[0]
    parts = data.draw(st.integers(2, 4))
    owner = data.draw(st.lists(st.integers(0, parts - 1), min_size=len(attempts),
                               max_size=len(attempts)))
    shares = zip(*(split_counter(data.draw, parts, counter)
                   for counter in (counts, in_block, early, keys)))
    latest = data.draw(st.integers(0, parts - 1))
    pieces = [
        closed(
            [attempt for attempt, part in zip(attempts, owner) if part == index],
            *share,
            last_commit if index == latest else data.draw(st.floats(0.0, last_commit)),
        )
        for index, share in enumerate(shares)
    ]
    rest = [closed(*parts) for parts in channels[1:]]
    assert tally_module.fold(pieces + rest) == folded
