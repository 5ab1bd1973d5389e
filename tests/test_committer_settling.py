"""Committers validate without events, bit for bit.

A *committer* — a peer with no replica that is not the ordering service's
reference peer, on a channel without faults — changes nothing anyone reads
while the run lasts, so it posts no delivery or validation-completion event:
the ordering service appends each delivery to the peer's arrival list and
:meth:`~repro.network.peer.Peer.settle` replays the list in arrival order
(:meth:`~repro.sim.resources.ServiceStation.charge` for the station), and the
group moves the clock to the last committer completion after the drain.

Each test here runs a cell twice: as built, and with every committer forced
back onto the event path (:func:`events_everywhere`).  Both must leave every
peer's validation station (busy time, waiting time, jobs, free time), committed
height and random stream in the same state, and compute
the same record and analysis, ``simulated_end`` included — while the settled
run dispatches fewer events.
"""

from __future__ import annotations

import random

import pytest
from corpus import build, canonical, recursive_diff, run
from test_shared_simulation import assert_every_peer_commits_in_order

from repro.bench.harness import ExperimentConfig
from repro.channels.group import ChannelGroup
from repro.core import LedgerAnalyzer
from repro.faults.spec import FaultConfig
from repro.network import network as channel_slice
from repro.network.config import NetworkConfig, TimingProfile
from repro.network.endorsement import NOutOf, SignedBy
from repro.sim.engine import Simulator
from repro.sim.resources import ServiceStation
from repro.sim.shard import ExecutionConfig
from repro.workload.workloads import uniform_workload


def cell(variant: str = "fabric-1.4", duration: float = 2.0, **network) -> ExperimentConfig:
    """EHR on cluster C2 (eight organizations of four peers), LevelDB, 100 tx/s."""
    network.setdefault("cluster", "C2")
    return ExperimentConfig(
        variant=variant,
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(database="leveldb", **network),
        arrival_rate=100.0 * network.get("channels", 1),
        duration=duration,
        zipf_skew=1.0,
        seed=5,
    )


def events_everywhere(monkeypatch) -> None:
    """Build every channel from here on with its committers on the event path."""
    init = channel_slice.Channel.__init__

    def with_events(self, *args, **kwargs):
        init(self, *args, **kwargs)
        for peer in self.committers:
            peer.arrivals = None
        self.committers = []

    monkeypatch.setattr(channel_slice.Channel, "__init__", with_events)


def simulate(monkeypatch, config: ExperimentConfig) -> dict:
    """Run ``config`` and return what its peers, records and analysis hold."""
    groups = []
    drain = ChannelGroup.run

    def kept(group, args):
        groups.append(group)
        return drain(group, args)

    monkeypatch.setattr(ChannelGroup, "run", kept)
    network = build(config)
    record = run(network, config)
    monkeypatch.setattr(ChannelGroup, "run", drain)
    channels = [channel for group in groups for channel in group.channels]
    peers = {}
    for channel in channels:
        for peer in channel.peers:
            station = peer.validation_station
            peers[f"{channel.name}/{peer.name}"] = {
                "busy_time": station.busy_time,
                "waiting_total": station.waiting_total,
                "jobs_served": station.jobs_served,
                "free_at": station.free_at,
                "committed_height": peer.committed_height,
                "stream": peer.rng.getstate(),
            }
    return {
        "execution": network.execution_mode,
        "committers": sum(len(channel.committers) for channel in channels),
        "events": sum(group.sim.processed_events for group in groups),
        "peers": peers,
        "simulated_end": [record.simulated_end]
        + [channel.record.simulated_end for channel in record.channel_records],
        "analysis": LedgerAnalyzer().analyze(record),
    }


def assert_settles_like_events(monkeypatch, config: ExperimentConfig) -> dict:
    settled = simulate(monkeypatch, config)
    events_everywhere(monkeypatch)
    evented = simulate(monkeypatch, config)
    assert settled["committers"] > 0 and evented["committers"] == 0
    assert settled["events"] < evented["events"]
    assert settled["execution"] == evented["execution"]
    for part in ("peers", "simulated_end", "analysis"):
        if settled[part] != evented[part]:
            changes = recursive_diff(canonical(evented[part]), canonical(settled[part]))
            path, change = next(iter(changes.items()), ((), None))
            where = " / ".join(str(step) for step in path) or "(the whole part)"
            raise AssertionError(
                f"{part} differs at {where}: "
                f"event path {getattr(change, 'old', evented[part])!r}, "
                f"settled {getattr(change, 'new', settled[part])!r}"
            )
    return settled


def jittered_cell() -> ExperimentConfig:
    """Half a second of delivery jitter against a block every tenth of a second."""
    return cell(timing=TimingProfile(delivery_jitter=0.5), block_size=10)


def test_jittered_arrivals_settle_in_arrival_order(monkeypatch):
    settled = assert_settles_like_events(monkeypatch, jittered_cell())
    assert settled["execution"] == "shared-clock"
    assert settled["committers"] == 24  # 32 peers, 8 replicas


def test_jittered_blocks_reach_every_peer_in_block_order(monkeypatch):
    # Without the per-peer FIFO stream a committer's blocks would arrive out
    # of order all the time here, and a replica's would apply out of order.
    assert_every_peer_commits_in_order(jittered_cell(), monkeypatch)


def test_streamchain_settles_a_block_per_transaction(monkeypatch):
    assert_settles_like_events(monkeypatch, cell("streamchain"))


def test_a_reference_peer_without_state_keeps_its_events(monkeypatch):
    # Organizations 1-7 endorse, so no peer of org0 holds a replica; peer0.org0
    # stamps every block's transactions, so it alone of them keeps its events.
    policy = NOutOf(2, tuple(SignedBy(org) for org in range(1, 8)))
    config = cell(endorsement_policy=policy, block_size=10)
    network = build(config)
    (channel,) = network.channels
    reference = channel.orderer.reference_peer
    assert reference.store is None and reference not in channel.committers
    assert reference.arrivals is None
    settled = assert_settles_like_events(monkeypatch, config)
    assert settled["committers"] == 32 - 7 - 1  # 7 replicas, and the reference peer


def test_four_coupled_channels_settle_on_the_shared_clock(monkeypatch):
    config = cell(cluster="C1", channels=4, cross_channel_rate=0.1, block_size=10)
    settled = assert_settles_like_events(monkeypatch, config)
    assert settled["execution"] == "shared-clock"
    assert settled["committers"] == 4 * 2


def test_sharded_channels_settle_on_their_own_clocks(monkeypatch):
    config = cell(channels=4, block_size=10, execution=ExecutionConfig(shard_workers=1))
    settled = assert_settles_like_events(monkeypatch, config)
    assert settled["execution"] == "sharded"
    assert settled["committers"] == 4 * 24


def test_a_faulted_channel_has_no_committers():
    config = cell(cluster="C1", faults=FaultConfig(peer_crash_rate=0.05))
    (channel,) = build(config).channels
    assert channel.faults is not None and channel.committers == []
    assert all(peer.arrivals is None for peer in channel.peers)


@pytest.mark.parametrize("seed", range(5))
def test_charge_is_what_submit_at_each_arrival_charges(seed):
    rng = random.Random(seed)
    jobs = sorted((rng.uniform(0, 10), rng.expovariate(2.0)) for _ in range(50))
    sim = Simulator()
    submitted = ServiceStation(sim, servers=1)
    for arrival, service_time in jobs:
        sim.post_at(arrival, submitted.submit, (service_time,))
    sim.run_until_empty()
    charged = ServiceStation(Simulator(), servers=1)
    charged.charge(jobs[:20])
    charged.charge(jobs[20:])
    for name in ("busy_time", "waiting_total", "jobs_served", "free_at"):
        assert getattr(charged, name) == getattr(submitted, name), name
