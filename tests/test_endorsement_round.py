"""Edge cases of the endorsement round, on a hand-driven simulator.

The client wakes up once per round — at the last response's arrival — instead
of once per response.  What a transaction ends up holding must nevertheless be
what one event per response would have produced under the engine's
``(time, sequence)`` order: these scenarios script every latency and service
time so that the expected outcome can be read off the timeline by hand.  The
outcome assertions (who endorsed, in which order, when, with which abort code)
go through ``submit_transaction`` alone and hold unchanged on the
event-per-response client this one replaced; the event counts and the closed
round's bookkeeping are the new client's own.

Timeline notation: proposals leave at t=0; ``one_way`` returns the scripted
delays in call order (one per proposal in organization order, then one per
response in completion order, then the client-to-orderer leg).
"""

from __future__ import annotations

import gc
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_shared_simulation import load_lint

from repro.errors import ConfigurationError
from repro.ledger.block import EndorsementResponse, Transaction, ValidationCode
from repro.ledger.rwset import KeyRead, ReadWriteSet
from repro.ledger.kvstore import GENESIS_VERSION
from repro.lifecycle.events import LifecycleBus, LifecycleEventType
from repro.network.client_node import ClientNode, EndorsementRound
from repro.network.config import NetworkConfig
from repro.network.endorsement import policy_p0
from repro.network.latency import LatencyModel
from repro.network.organization import Organization
from repro.sim.engine import Simulator


class ScriptedLatency:
    """``one_way`` returns the scripted delays in call order."""

    def __init__(self, delays):
        self.delays = list(delays)

    def one_way(self, src_org=None, dst_org=None):
        return self.delays.pop(0)


class ScriptedPeer:
    """An endorser that answers ``service`` seconds after the proposal arrives."""

    is_endorser = True

    def __init__(self, sim, org_index, service):
        self.sim = sim
        self.org_index = org_index
        self.name = f"peer0.org{org_index}"
        self.service = service

    def receive_proposal(self, tx, chaincode, on_response, simulated=None):
        response = EndorsementResponse(
            peer_name=self.name,
            org_name=f"org{self.org_index}",
            rwset=ReadWriteSet(reads=[KeyRead("k", GENESIS_VERSION)]),
            completed_at=self.sim.now + self.service,
            received_at=self.sim.now,
        )
        self.sim.post(self.service, on_response, self, response)


class ScriptedFaults:
    """Down peers and an optional collection watchdog; nothing is ever lost."""

    def __init__(self, down=(), timeout=None):
        self.down = set(down)
        self.endorsement_timeout = timeout
        self.arms_endorsement_watchdog = timeout is not None

    def peer_available(self, name):
        return name not in self.down

    def endorsement_lost(self):
        return False


class RecordingOrderer:
    """Records what reaches the ordering stage, and when."""

    def __init__(self, sim):
        self.sim = sim
        self.submitted = []
        self.aborted = []
        self.early_aborted = []

    def submit(self, tx):
        self.submitted.append((self.sim.now, tx))

    def abort_early(self, tx, code, reason=None):
        tx.validation_code = code
        self.aborted.append((self.sim.now, code, endorsers(tx)))


class Chaincode:
    name = "scripted"


def endorsers(tx):
    return [response.peer_name for response in tx.endorsements]


def build_client(sim, services, latency, faults=None, bus=None, rng=None, organizations=None):
    """A client over one scripted endorser per organization (or ``organizations``)."""
    organizations = organizations or [
        Organization(index=index, name=f"org{index}", peers=[ScriptedPeer(sim, index, service)])
        for index, service in enumerate(services)
    ]
    orderer = RecordingOrderer(sim)
    client = ClientNode(
        sim=sim,
        name="client0",
        config=NetworkConfig(cluster="C1", database="leveldb"),
        chaincode=Chaincode(),
        workload=None,
        organizations=organizations,
        policy=policy_p0(len(organizations)),
        orderer=orderer,
        latency=latency,
        arrival=None,
        rng=rng or random.Random(3),
        tx_ids=lambda: "tx-next",
        bus=bus,
        faults=faults,
    )
    return client, orderer


def new_tx():
    return Transaction(
        tx_id="tx-0", client_name="client0", chaincode_name="scripted", function="f", args=()
    )


def test_round_wakes_the_client_once_at_the_last_arrival():
    sim = Simulator()
    bus = LifecycleBus()
    seen = []
    bus.subscribe(LifecycleEventType.ENDORSED, lambda event: seen.append(event.time))
    # Proposals arrive at 1; completions at 2, 3, 4; arrivals at 3.5, 6, 4.25.
    latency = ScriptedLatency([1.0, 1.0, 1.0, 1.5, 3.0, 0.25, 0.5])
    client, orderer = build_client(sim, [1.0, 2.0, 3.0], latency, bus=bus)
    tx = new_tx()
    before = sim.processed_events
    client.submit_transaction(tx)
    sim.run_until_empty()
    # Arrival order, not send order; the round completes at the last arrival.
    assert endorsers(tx) == ["peer0.org0", "peer0.org2", "peer0.org1"]
    assert tx.endorsement_completed_at == 6.0 and seen == [6.0]
    assert tx.rwset is tx.endorsements[0].rwset
    assert all(response.rwset is tx.rwset for response in tx.endorsements)
    assert not tx.endorsement_mismatch
    hop = client.config.timing.client_processing + 0.5
    assert orderer.submitted == [(6.0 + hop, tx)] and not orderer.aborted
    # 3 deliveries, 3 completions, 1 round, 1 ordering hop.
    assert sim.processed_events - before == 2 * 3 + 2
    assert latency.delays == []


def test_equal_arrival_times_keep_send_order():
    sim = Simulator()
    # org1 completes first (t=2) and its response takes 2; org0 completes at 3
    # and its response takes 1: both arrive at exactly 4, org1's was sent first.
    latency = ScriptedLatency([1.0, 1.0, 1.0, 2.0, 1.0, 0.5, 0.0])
    client, orderer = build_client(sim, [2.0, 1.0, 3.0], latency)
    tx = new_tx()
    client.submit_transaction(tx)
    sim.run_until_empty()
    assert endorsers(tx) == ["peer0.org1", "peer0.org0", "peer0.org2"]
    assert tx.endorsement_completed_at == 4.5


def test_watchdog_at_exactly_the_last_arrival_times_the_attempt_out():
    sim = Simulator()
    # The last response is sent at 4 and takes 6: it arrives at 10.0, the very
    # instant the watchdog (posted first, inside submit_transaction) fires.
    latency = ScriptedLatency([1.0, 1.0, 1.0, 1.0, 1.0, 6.0])
    faults = ScriptedFaults(timeout=10.0)
    client, orderer = build_client(sim, [1.0, 2.0, 3.0], latency, faults=faults)
    tx = new_tx()
    client.submit_transaction(tx)
    sim.run_until_empty()
    assert orderer.aborted == [
        (10.0, ValidationCode.ENDORSEMENT_TIMEOUT, ["peer0.org0", "peer0.org1"])
    ]
    assert endorsers(tx) == ["peer0.org0", "peer0.org1"]
    assert tx.endorsement_completed_at is None and not orderer.submitted
    assert sim.pending_events == 0 and latency.delays == []


def test_watchdog_between_the_last_send_and_the_last_arrival():
    sim = Simulator()
    # Arrivals: org0 at 3, org1 at 3 + 4 = 7, org2 at 4 + 0.5 = 4.5; the last
    # send (t=4) has already posted the round's wake-up for t=7 when the
    # watchdog fires at 5.
    latency = ScriptedLatency([1.0, 1.0, 1.0, 1.0, 4.0, 0.5])
    faults = ScriptedFaults(timeout=5.0)
    client, orderer = build_client(sim, [1.0, 2.0, 3.0], latency, faults=faults)
    tx = new_tx()
    client.submit_transaction(tx)
    sim.run(until=5.0)
    assert orderer.aborted == [
        (5.0, ValidationCode.ENDORSEMENT_TIMEOUT, ["peer0.org0", "peer0.org2"])
    ]
    sim.run_until_empty()
    # Whatever was still scheduled for the round did nothing.
    assert endorsers(tx) == ["peer0.org0", "peer0.org2"]
    assert tx.endorsement_completed_at is None and tx.rwset is None
    assert not orderer.submitted and len(orderer.aborted) == 1
    assert sim.pending_events == 0


def test_unreachable_peer_after_another_endorser_already_answered():
    sim = Simulator()
    # org2 is down: the client learns at t=5.  org0 answered at 3; org1's
    # response (sent at 3, arriving at 7) is still in flight and is dropped.
    latency = ScriptedLatency([1.0, 1.0, 5.0, 1.0, 4.0])
    faults = ScriptedFaults(down={"peer0.org2"})
    client, orderer = build_client(sim, [1.0, 2.0, 3.0], latency, faults=faults)
    tx = new_tx()
    client.submit_transaction(tx)
    sim.run_until_empty()
    assert orderer.aborted == [(5.0, ValidationCode.PEER_UNAVAILABLE, ["peer0.org0"])]
    assert endorsers(tx) == ["peer0.org0"]
    assert not orderer.submitted and latency.delays == []


def test_completion_reaching_a_closed_round_draws_its_latency_and_posts_nothing():
    sim = Simulator()
    stream = random.Random(21)
    latency = LatencyModel(NetworkConfig(cluster="C1", database="leveldb"), stream)
    faults = ScriptedFaults(down={"peer0.org0"})
    # org0 is down, so the round closes one hop (~1 ms) after submission; org1
    # completes at ~2 s and org2 at ~3 s, each reaching the closed round.
    client, orderer = build_client(sim, [1.0, 2.0, 3.0], latency, faults=faults)
    tx = new_tx()
    client.submit_transaction(tx)
    sim.run(until=1.0)
    assert [code for _, code, _ in orderer.aborted] == [ValidationCode.PEER_UNAVAILABLE]
    twin_stream = random.Random()
    twin_stream.setstate(stream.getstate())
    twin = LatencyModel(client.config, twin_stream)
    for org_index in (1, 2):
        pending = sim.pending_events
        sim.run(until=sim.next_event_time)
        # The completion event itself is gone and it scheduled nothing...
        assert sim.pending_events == pending - 1
        # ...but the channel's shared latency stream moved by exactly its draw.
        twin.one_way(org_index, None)
        assert stream.getstate() == twin_stream.getstate()
    assert sim.pending_events == 0
    assert endorsers(tx) == [] and not orderer.submitted and len(orderer.aborted) == 1


def test_a_round_is_freed_by_reference_count_when_its_attempt_resolves():
    tx = new_tx()

    def live_rounds():
        return [
            obj for obj in gc.get_objects() if type(obj) is EndorsementRound and obj.tx is tx
        ]

    was_enabled = gc.isenabled()
    gc.disable()  # a cycle would otherwise be hidden by an automatic collection
    try:
        sim = Simulator()
        latency = ScriptedLatency([1.0] * 3 + [1.0] * 3 + [0.5])
        faults = ScriptedFaults(timeout=50.0)
        client, orderer = build_client(sim, [1.0, 2.0, 3.0], latency, faults=faults)
        client.submit_transaction(tx)
        assert len(live_rounds()) == 1
        sim.run(until=40.0)
        # Completed and handed to the orderer; only the armed watchdog's event
        # still names the round.
        assert len(orderer.submitted) == 1 and len(live_rounds()) == 1
        sim.run_until_empty()
        assert not orderer.aborted and live_rounds() == []
    finally:
        if was_enabled:
            gc.enable()


# ------------------------------------------------------------ endorser pick
class RecordingPeer(ScriptedPeer):
    """Records that it was picked; never answers."""

    def __init__(self, sim, name, picked):
        super().__init__(sim, org_index=0, service=0.0)
        self.name = name
        self.picked = picked

    def receive_proposal(self, tx, chaincode, on_response, simulated=None):
        self.picked.append(self.name)


def picks_of(rng, endorsers, attempts):
    """The endorsers ``attempts`` submissions pick in a one-organization deployment."""
    sim = Simulator()
    picked = []
    peers = [RecordingPeer(sim, f"peer{index}.org0", picked) for index in range(endorsers)]
    organizations = [Organization(index=0, name="org0", peers=peers)]
    latency = ScriptedLatency([0.0] * attempts)
    client, _ = build_client(sim, None, latency, rng=rng, organizations=organizations)
    for _ in range(attempts):
        client.submit_transaction(new_tx())
    sim.run_until_empty()
    return picked


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    endorsers=st.integers(min_value=1, max_value=64),
    attempts=st.integers(min_value=1, max_value=8),
)
def test_replayed_endorser_pick_matches_choice(seed, endorsers, attempts):
    replayed_rng, stdlib_rng = random.Random(seed), random.Random(seed)
    replayed_rng.choice = replayed_rng.sample = None  # the replay calls neither
    picked = picks_of(replayed_rng, endorsers, attempts)
    names = [f"peer{index}.org0" for index in range(endorsers)]
    policy = policy_p0(1)
    expected = []
    for _ in range(attempts):
        policy.select_orgs(stdlib_rng)
        expected.append(stdlib_rng.choice(names))
    assert picked == expected
    assert replayed_rng.getstate() == stdlib_rng.getstate()


class CountingRandom(random.Random):
    """A subclass: it must keep the stdlib's own calls."""

    choice_calls = 0

    def choice(self, seq):
        self.choice_calls += 1
        return super().choice(seq)


def test_a_subclassed_generator_keeps_the_stdlib_choice():
    rng = CountingRandom(5)
    picked = picks_of(rng, endorsers=3, attempts=4)
    twin = random.Random(5)
    expected = []
    for _ in range(4):
        policy_p0(1).select_orgs(twin)
        expected.append(f"peer{twin.choice(range(3))}.org0")
    assert picked == expected and rng.choice_calls == 4
    assert rng.getstate() == twin.getstate()


def test_an_organization_without_endorsers_cannot_be_sent_a_proposal(monkeypatch):
    monkeypatch.setattr(ScriptedPeer, "is_endorser", False)
    client, _ = build_client(Simulator(), [1.0], ScriptedLatency([]))
    with pytest.raises(ConfigurationError, match="'org0' has no endorsing peers"):
        client.submit_transaction(new_tx())


def test_the_lint_rejects_a_round_with_a_dict():
    lint = load_lint()
    plain = "class EndorsementRound:\n    def __init__(self):\n        self.tx = None\n"
    slotted = 'class EndorsementRound:\n    __slots__ = ("tx",)\n'
    assert len(lint.check_slots(plain, "client_node.py", every_class=True)) == 1
    assert lint.check_slots(slotted, "client_node.py", every_class=True) == []
    assert lint.check_slots(plain, "block.py") == []  # dataclasses only, elsewhere
    assert "src/repro/network/client_node.py" in lint.SLOTS_EVERY_CLASS
    assert not hasattr(EndorsementRound(new_tx(), 1), "__dict__")
