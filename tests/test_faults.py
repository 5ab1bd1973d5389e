"""Unit tests for the fault-injection subsystem (spec, schedule, controller)."""

from __future__ import annotations

import random

import pytest

from repro.errors import ConfigurationError
from repro.faults import (
    FaultConfig,
    FaultController,
    FaultInjection,
    FaultKind,
    FaultSchedule,
    available_fault_kinds,
    fault_config_summary,
    parse_fault_spec,
)
from repro.network.config import NetworkConfig
from repro.sim.engine import Simulator


# ----------------------------------------------------------------- FaultConfig
def test_default_config_is_disabled_and_valid():
    config = FaultConfig()
    assert not config.enabled
    config.validate()
    assert config.describe() == "none"


@pytest.mark.parametrize(
    "kwargs",
    [
        {"peer_crash_rate": 0.1},
        {"endorser_slowdown_rate": 0.1},
        {"orderer_outages": ((1.0, 2.0),)},
        {"partitions": ((0, 1.0, 2.0),)},
        {"endorsement_loss_rate": 0.05},
    ],
)
def test_any_fault_knob_enables_the_config(kwargs):
    assert FaultConfig(**kwargs).enabled


@pytest.mark.parametrize(
    "kwargs",
    [
        {"peer_crash_rate": -1.0},
        {"peer_downtime": 0.0},
        {"endorser_slowdown_factor": 0.5},
        {"endorser_slowdown_duration": 0.0},
        {"endorsement_loss_rate": 1.5},
        {"endorsement_timeout": 0.0},
        {"orderer_outages": ((-1.0, 2.0),)},
        {"orderer_outages": ((1.0, 0.0),)},
        {"partitions": ((-1, 1.0, 2.0),)},
        {"partitions": ((0, 1.0, -2.0),)},
    ],
)
def test_invalid_fault_configs_are_rejected(kwargs):
    with pytest.raises(ConfigurationError):
        FaultConfig(**kwargs).validate()


NAN = float("nan")
INF = float("inf")


@pytest.mark.parametrize(
    "kwargs, field",
    [
        pytest.param({"peer_crash_rate": NAN}, "peer crash rate", id="crash-rate-nan"),
        pytest.param({"peer_crash_rate": INF}, "peer crash rate", id="crash-rate-inf"),
        pytest.param({"peer_downtime": NAN}, "mean peer downtime", id="downtime-nan"),
        pytest.param({"peer_downtime": INF}, "mean peer downtime", id="downtime-inf"),
        pytest.param({"endorser_slowdown_rate": NAN}, "endorser slowdown rate", id="slow-rate-nan"),
        pytest.param({"endorser_slowdown_rate": INF}, "endorser slowdown rate", id="slow-rate-inf"),
        pytest.param({"endorser_slowdown_factor": NAN}, "slowdown factor", id="factor-nan"),
        pytest.param({"endorser_slowdown_factor": INF}, "slowdown factor", id="factor-inf"),
        pytest.param({"endorser_slowdown_duration": NAN}, "slowdown duration", id="slow-len-nan"),
        pytest.param({"endorser_slowdown_duration": INF}, "slowdown duration", id="slow-len-inf"),
        pytest.param({"endorsement_loss_rate": NAN}, "endorsement loss rate", id="loss-nan"),
        pytest.param({"endorsement_timeout": NAN}, "endorsement timeout", id="timeout-nan"),
        pytest.param({"endorsement_timeout": INF}, "endorsement timeout", id="timeout-inf"),
        pytest.param({"orderer_outages": ((NAN, 1.0),)}, "orderer outage", id="outage-start-nan"),
        pytest.param({"orderer_outages": ((1.0, INF),)}, "orderer outage", id="outage-len-inf"),
        pytest.param({"partitions": ((0, NAN, 1.0),)}, "partition windows", id="cut-start-nan"),
        pytest.param({"partitions": ((0, 1.0, INF),)}, "partition windows", id="cut-len-inf"),
    ],
)
def test_non_finite_fault_numbers_are_rejected_naming_the_field(kwargs, field):
    # Every bound is written so that NaN fails it and infinity exceeds it: a
    # NaN rate must not read as "disabled", an infinite downtime must not
    # reach the schedule's exponential draw.
    with pytest.raises(ConfigurationError, match=field):
        FaultConfig(**kwargs).validate()


def test_network_config_rejects_partition_beyond_channel_count():
    config = NetworkConfig(
        cluster="C1", channels=2, faults=FaultConfig(partitions=((5, 1.0, 1.0),))
    )
    with pytest.raises(ConfigurationError, match="channel 5"):
        config.validate()


# --------------------------------------------------------------------- parsing
def test_parse_fault_spec_dsl_round_trip():
    config = parse_fault_spec(
        "peer-crash:rate=0.05,downtime=2;"
        "endorser-slowdown:rate=0.1,factor=4,duration=0.5;"
        "orderer-outage:start=5,duration=3;orderer-outage:start=12,duration=1;"
        "partition:channel=1,start=4,duration=2;"
        "endorsement-loss:rate=0.02;endorsement-timeout:seconds=1.0"
    )
    assert config.peer_crash_rate == 0.05
    assert config.peer_downtime == 2.0
    assert config.endorser_slowdown_rate == 0.1
    assert config.endorser_slowdown_factor == 4.0
    assert config.orderer_outages == ((5.0, 3.0), (12.0, 1.0))
    assert config.partitions == ((1, 4.0, 2.0),)
    assert config.endorsement_loss_rate == 0.02
    assert config.endorsement_timeout == 1.0
    assert config.enabled


def test_parse_fault_spec_json_matches_dsl():
    from_json = parse_fault_spec(
        '{"peer_crash": {"rate": 0.05, "downtime": 2},'
        ' "orderer_outages": [[5, 3]], "endorsement_loss_rate": 0.02}'
    )
    from_dsl = parse_fault_spec(
        "peer-crash:rate=0.05,downtime=2;orderer-outage:start=5,duration=3;"
        "endorsement-loss:rate=0.02"
    )
    assert from_json == from_dsl


@pytest.mark.parametrize(
    "spec",
    [
        '{"orderer_outages": [[1e308, 1e308]]}',
        "orderer-outage:start=1e308,duration=1e308",
    ],
)
def test_an_orderer_outage_whose_end_overflows_is_rejected_when_parsed(spec):
    # Both numbers are finite, their sum is not: the run used to start and
    # die scheduling the outage's end at t=inf, naming no spec key.
    with pytest.raises(ConfigurationError, match=r"orderer outage windows .* finite end"):
        parse_fault_spec(spec)


@pytest.mark.parametrize(
    "spec",
    [
        '{"partitions": [[0, 1e308, 1e308]]}',
        "partition:channel=0,start=1e308,duration=1e308",
    ],
)
def test_a_partition_whose_end_overflows_is_rejected_when_parsed(spec):
    message = r"partition windows .* finite end, got .* on channel 0"
    with pytest.raises(ConfigurationError, match=message):
        parse_fault_spec(spec)


def test_parse_fault_spec_unknown_kind_lists_valid_choices():
    with pytest.raises(ConfigurationError) as excinfo:
        parse_fault_spec("meteor-strike:rate=1")
    message = str(excinfo.value)
    for kind in available_fault_kinds():
        assert kind in message


def test_parse_fault_spec_rejects_malformed_input():
    with pytest.raises(ConfigurationError, match="malformed"):
        parse_fault_spec("{not json")
    with pytest.raises(ConfigurationError, match="unknown fault spec keys"):
        parse_fault_spec('{"meteor_strike": 1}')
    with pytest.raises(ConfigurationError, match="not a number"):
        parse_fault_spec("peer-crash:rate=often")
    with pytest.raises(ConfigurationError, match="unknown parameter"):
        parse_fault_spec("peer-crash:vigor=3")
    assert not parse_fault_spec("").enabled


@pytest.mark.parametrize(
    "spec, value",
    [
        ("partition:channel=1.9,start=0,duration=1", "1.9"),
        ("partition:channel=-0.5,start=0,duration=1", "-0.5"),
        ('{"partitions": [[-0.5, 1, 1]]}', "-0.5"),
        ('{"partitions": [[1.9, 1, 1]]}', "1.9"),
    ],
)
def test_parse_fault_spec_rejects_a_fractional_partition_channel(spec, value):
    # ``int()`` used to truncate: 1.9 partitioned channel 1, and -0.5 became
    # channel 0, past the ``>= 0`` check.
    with pytest.raises(ConfigurationError, match=f"whole channel index, got {value}$"):
        parse_fault_spec(spec)


def test_parse_fault_spec_keeps_a_whole_float_partition_channel():
    assert parse_fault_spec("partition:channel=1.0,start=0,duration=1").partitions == ((1, 0.0, 1.0),)
    assert parse_fault_spec('{"partitions": [[2.0, 1, 1]]}').partitions == ((2, 1.0, 1.0),)


def test_fault_config_summary_is_json_friendly():
    import json

    summary = fault_config_summary(parse_fault_spec("partition:channel=1,start=4,duration=2"))
    assert json.loads(json.dumps(summary))["partitions"] == [[1, 4.0, 2.0]]


# -------------------------------------------------------------- FaultSchedule
PEERS = ["peer0.org0", "peer1.org0", "peer0.org1", "peer1.org1"]
ENDORSERS = PEERS[:2]


def generate(config: FaultConfig, seed: int = 7, channel=None) -> FaultSchedule:
    return FaultSchedule.generate(
        config, peers=PEERS, endorsers=ENDORSERS, horizon=20.0,
        rng=random.Random(seed), channel=channel,
    )


def test_schedule_is_deterministic_per_seed():
    config = FaultConfig(
        peer_crash_rate=0.2, endorser_slowdown_rate=0.3, endorsement_loss_rate=0.1
    )
    assert generate(config, seed=7).injections == generate(config, seed=7).injections
    assert generate(config, seed=7).injections != generate(config, seed=8).injections


def test_schedule_is_sorted_and_alternates_per_target():
    schedule = generate(FaultConfig(peer_crash_rate=0.5, peer_downtime=1.0))
    times = [event.time for event in schedule]
    assert times == sorted(times)
    # Per peer the episodes alternate crash/recover and never overlap.
    for peer in PEERS:
        events = [event for event in schedule if event.target == peer]
        assert [e.kind for e in events[::2]] == [FaultKind.PEER_CRASH] * len(events[::2])
        assert [e.kind for e in events[1::2]] == [FaultKind.PEER_RECOVER] * len(events[1::2])
        assert all(earlier.time < later.time for earlier, later in zip(events, events[1:]))


def test_schedule_starts_new_episodes_inside_the_horizon():
    schedule = generate(FaultConfig(peer_crash_rate=1.0, peer_downtime=0.5))
    starts = [event for event in schedule if event.kind is FaultKind.PEER_CRASH]
    assert starts  # at this rate the horizon certainly contains crashes
    assert all(event.time < 20.0 for event in starts)


def test_schedule_filters_partitions_by_channel():
    config = FaultConfig(partitions=((0, 1.0, 2.0), (1, 5.0, 1.0)))
    classic = generate(config, channel=None)  # classic path behaves as channel 0
    assert [e.target for e in classic] == ["channel0", "channel0"]
    shard1 = generate(config, channel=1)
    assert [(e.time, e.kind) for e in shard1] == [
        (5.0, FaultKind.PARTITION_START),
        (6.0, FaultKind.PARTITION_END),
    ]


def test_disabled_rates_generate_no_injections():
    assert len(generate(FaultConfig())) == 0


# ------------------------------------------------------------ FaultController
def controller(config: FaultConfig, channel=None):
    sim = Simulator()
    return sim, FaultController(
        sim=sim, config=config, loss_rng=random.Random(3), channel=channel
    )


def test_controller_replays_crash_and_recovery():
    config = FaultConfig(peer_crash_rate=0.1)
    sim, ctl = controller(config)
    ctl.arm(FaultSchedule([
        FaultInjection(1.0, FaultKind.PEER_CRASH, "p0"),
        FaultInjection(3.0, FaultKind.PEER_RECOVER, "p0"),
    ]))
    assert ctl.peer_available("p0")
    sim.run(until=2.0)
    assert not ctl.peer_available("p0")
    assert ctl.peer_crashed("p0")
    delivered = []
    ctl.defer_block_delivery("p0", lambda: delivered.append(sim.now))
    sim.run(until=4.0)
    assert ctl.peer_available("p0")
    assert delivered == [3.0]
    assert ctl.stats()["peer_crash"] == 1
    assert ctl.stats()["deferred_block_deliveries"] == 1


def test_controller_restores_orderer_after_overlapping_windows():
    sim, ctl = controller(FaultConfig(orderer_outages=((1.0, 4.0),)))
    ctl.arm(FaultSchedule([
        FaultInjection(1.0, FaultKind.ORDERER_OUTAGE_START, "orderer"),
        FaultInjection(2.0, FaultKind.PARTITION_START, "channel0"),
        FaultInjection(3.0, FaultKind.PARTITION_END, "channel0"),
        FaultInjection(5.0, FaultKind.ORDERER_OUTAGE_END, "orderer"),
    ]))
    restored = []
    sim.run(until=2.5)
    assert not ctl.orderer_available()
    ctl.on_orderer_restored = lambda: restored.append(sim.now)
    sim.run(until=3.5)
    # The partition ended but the outage still holds: not restored yet.
    assert not ctl.orderer_available()
    assert restored == []
    sim.run(until=6.0)
    assert ctl.orderer_available()
    assert restored == [5.0]


def test_controller_endorsement_loss_draws_and_counts():
    _sim, ctl = controller(FaultConfig(endorsement_loss_rate=1.0))
    assert ctl.endorsement_lost()
    assert ctl.lost_endorsements == 1
    _sim, dry = controller(FaultConfig(peer_crash_rate=0.1))
    assert not dry.endorsement_lost()
    assert dry.lost_endorsements == 0


def test_controller_slowdown_factor_toggles():
    sim, ctl = controller(FaultConfig(endorser_slowdown_rate=0.1, endorser_slowdown_factor=6.0))
    ctl.arm(FaultSchedule([
        FaultInjection(1.0, FaultKind.ENDORSER_SLOWDOWN_START, "p0"),
        FaultInjection(2.0, FaultKind.ENDORSER_SLOWDOWN_END, "p0"),
    ]))
    assert ctl.endorsement_factor("p0") == 1.0
    sim.run(until=1.5)
    assert ctl.endorsement_factor("p0") == 6.0
    assert ctl.endorsement_factor("p1") == 1.0
    sim.run(until=2.5)
    assert ctl.endorsement_factor("p0") == 1.0


def test_parse_fault_spec_rejects_watchdog_only_specs():
    # endorsement-timeout alone would parse into a disabled config — a silent
    # no-op — so both syntaxes reject it unless a fault kind is configured.
    with pytest.raises(ConfigurationError, match="injects nothing by itself"):
        parse_fault_spec("endorsement-timeout:seconds=0.3")
    with pytest.raises(ConfigurationError, match="injects nothing by itself"):
        parse_fault_spec('{"endorsement_timeout": 0.3}')
    combined = parse_fault_spec("endorsement-loss:rate=0.1;endorsement-timeout:seconds=0.3")
    assert combined.endorsement_timeout == 0.3


def test_parse_fault_spec_json_rejects_mis_shaped_values():
    with pytest.raises(ConfigurationError, match="must be an object"):
        parse_fault_spec('{"peer_crash": 0.2}')
    with pytest.raises(ConfigurationError, match="unknown parameters"):
        parse_fault_spec('{"peer_crash": {"ratee": 0.4}}')
    with pytest.raises(ConfigurationError, match="must be a number"):
        parse_fault_spec('{"peer_crash": {"rate": "often"}}')
    with pytest.raises(ConfigurationError, match="list of 2-element lists"):
        parse_fault_spec('{"orderer_outages": [[1.0]]}')
    with pytest.raises(ConfigurationError, match="list of 3-element lists"):
        parse_fault_spec('{"partitions": [[0, 1.0]]}')


def test_watchdog_arms_only_for_loss_or_slowdown():
    assert FaultConfig(endorsement_loss_rate=0.1).arms_endorsement_watchdog
    assert FaultConfig(endorser_slowdown_rate=0.1).arms_endorsement_watchdog
    # Crashes and partitions fail proposals fast instead of losing responses,
    # so the watchdog stays off and congestion is never misclassified.
    assert not FaultConfig(peer_crash_rate=0.5).arms_endorsement_watchdog
    assert not FaultConfig(orderer_outages=((1.0, 2.0),)).arms_endorsement_watchdog
    assert not FaultConfig(partitions=((0, 1.0, 2.0),)).arms_endorsement_watchdog


def test_controller_overlapping_partitions_heal_only_after_the_last_window():
    sim, ctl = controller(FaultConfig(partitions=((0, 1.0, 5.0), (0, 3.0, 5.0))))
    ctl.arm(FaultSchedule([
        FaultInjection(1.0, FaultKind.PARTITION_START, "channel0"),
        FaultInjection(3.0, FaultKind.PARTITION_START, "channel0"),
        FaultInjection(6.0, FaultKind.PARTITION_END, "channel0"),
        FaultInjection(8.0, FaultKind.PARTITION_END, "channel0"),
    ]))
    sim.run(until=7.0)
    # The first window ended but the second still holds the channel apart.
    assert not ctl.peer_available("p0")
    assert not ctl.orderer_available()
    sim.run(until=9.0)
    assert ctl.peer_available("p0")
    assert ctl.orderer_available()


def test_parse_fault_spec_empty_json_object_enables_default_rate():
    # {"peer_crash": {}} must behave like the parameterless DSL clause, not
    # silently parse into a disabled no-op config.
    config = parse_fault_spec('{"peer_crash": {}}')
    assert config.enabled
    assert config.peer_crash_rate == 0.05
    slow = parse_fault_spec('{"endorser_slowdown": {}}')
    assert slow.enabled
    assert slow.endorser_slowdown_rate == 0.05


def test_parse_fault_spec_zero_rate_spec_fails_loudly():
    with pytest.raises(ConfigurationError, match="injects nothing"):
        parse_fault_spec("peer-crash:rate=0")
    with pytest.raises(ConfigurationError, match="injects nothing"):
        parse_fault_spec('{"endorsement_loss_rate": 0.0}')


def test_parse_fault_spec_empty_document_and_blank_clauses_fail_loudly():
    # '{}' and ';;' express intent to inject faults but configure none.
    with pytest.raises(ConfigurationError, match="injects nothing"):
        parse_fault_spec("{}")
    with pytest.raises(ConfigurationError, match="injects nothing"):
        parse_fault_spec(";;")


def test_parse_fault_spec_rejects_repeated_scalar_clauses():
    with pytest.raises(ConfigurationError, match="more than once"):
        parse_fault_spec("peer-crash:rate=0.1;peer-crash:rate=0.3")
    # Window clauses are append-only and may repeat freely.
    config = parse_fault_spec("orderer-outage:start=1,duration=1;orderer-outage:start=5,duration=1")
    assert config.orderer_outages == ((1.0, 1.0), (5.0, 1.0))
