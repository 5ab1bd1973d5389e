"""Overhead guard: disabled observability costs nothing (always-on, tier-1).

The zero-cost contract has two halves and this module pins both in the
default test selection:

* **Structural** — building a deployment with the default (disabled)
  :class:`~repro.observability.config.ObservabilityConfig` installs nothing:
  no observer, no bus listener, no pre-scheduled sampler tick, no profiler.
  This is the strong form of the guarantee; it catches a regression exactly,
  independent of machine noise.
* **Same engine, same work** — the disabled deployment's simulator *is* the
  plain :class:`~repro.sim.engine.Simulator` class (no subclass, no wrapped
  dispatch loop) and it dispatches exactly the bare baseline's event count on
  the 30k-transaction smoke cascade (the same cascade the engine-speed smoke
  guard drives) — so the disabled path runs the baseline's code, event for
  event.  These are exact, machine-independent facts; the wall-clock twin is
  ``python3 -m perfbench``: ``ehr-paper`` runs with observability off, so a
  branch grown in the dispatch loop shows in its ``wall_s`` and
  ``sim.engine.self_s`` against the parent commit.
"""

from __future__ import annotations

from engine_cascade import run_cascade

from repro.bench.harness import ExperimentConfig
from repro.channels.network import MultiChannelNetwork
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.observability import ObservabilityConfig
from repro.sim.engine import Simulator

SMOKE_TRANSACTIONS = 30_000
#: Events the 30k-transaction cascade dispatches on a bare engine: six per
#: transaction (every armed watchdog is cancelled before it fires).
SMOKE_EVENTS = 180_000


def build_disabled_network() -> MultiChannelNetwork:
    config = NetworkConfig(cluster="C1", database="leveldb", block_size=10)
    assert not config.observability.enabled
    return build_network(
        config=config,
        chaincode_factory=ExperimentConfig().build_chaincode,
        variant_factory="fabric-1.4",
        seed=7,
    )


# ------------------------------------------------------------------ structural
def test_disabled_observability_installs_nothing():
    network = build_disabled_network()
    assert network.groups[0].observer is None
    assert not network.bus._listeners, "a disabled config subscribed a bus listener"
    assert network.sim.pending_events == 0, "a disabled config pre-scheduled engine events"
    assert not network.sim.profiler_attached


def test_disabled_config_is_the_default_everywhere():
    assert not ObservabilityConfig().enabled
    assert not NetworkConfig().observability.enabled
    assert not ExperimentConfig().network.observability.enabled


# ------------------------------------------------------ same engine, same work
def test_disabled_path_is_the_plain_engine_event_for_event():
    sim = build_disabled_network().sim
    assert type(sim) is Simulator, "a disabled config wrapped or subclassed the engine"
    baseline = run_cascade(Simulator(), SMOKE_TRANSACTIONS)
    disabled = run_cascade(sim, SMOKE_TRANSACTIONS)
    assert disabled["events"] == baseline["events"] == SMOKE_EVENTS
    assert disabled["submitted"] == baseline["submitted"] == SMOKE_TRANSACTIONS
    assert disabled["timeouts_fired"] == baseline["timeouts_fired"] == 0
    assert not sim.profiler_attached and sim.pending_events == 0
