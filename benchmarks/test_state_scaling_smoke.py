"""Smoke guard for the copy-on-write state layer (always-on, tier-1).

Runs inside the default test selection and the CI bench-smoke job.  Its
peak-memory assertions (via ``tracemalloc``, no extra dependencies) are the
regression tripwire: if peer state ever goes back to O(peers x state) — a deep
copy of the genesis population per endorser — these tests fail long before
``peak_rss_mb`` of ``python3 -m perfbench`` shows it.
"""

from __future__ import annotations

import gc
import tracemalloc

from repro.chaincode.genchain import GenChainChaincode
from repro.ledger import factory
from repro.ledger.factory import make_state_store
from repro.lifecycle import pipeline
from repro.network.config import NetworkConfig

STATE_KEYS = 20_000


def traced_peak(build) -> int:
    """Peak traced allocation of running ``build()`` once."""
    gc.collect()
    tracemalloc.start()
    result = build()
    _current, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    del result
    gc.collect()
    return peak


def populated_base():
    base = make_state_store("leveldb")
    base.populate(
        {f"gk{index:08d}": {"value": index, "writes": 0} for index in range(STATE_KEYS)}
    )
    return base


def test_eight_overlays_cost_a_fraction_of_eight_deep_copies():
    base = populated_base()
    base.freeze()

    def peak_of(replicate, peers: int) -> int:
        return traced_peak(lambda: [replicate() for _ in range(peers)])

    copy_peak = {peers: peak_of(base.copy, peers) for peers in (1, 8)}
    overlay_peak = {peers: peak_of(base.overlay, peers) for peers in (1, 8)}
    assert overlay_peak[8] * 4 < copy_peak[8], (
        f"8 overlays peaked at {overlay_peak[8]} bytes vs {copy_peak[8]} bytes for "
        "8 deep copies; the O(peers x state) regression is back"
    )
    # A deep-copied replica costs O(state) each, so the deep-copy peak scales
    # with the peer count; an overlay replica only costs its divergence, so
    # the marginal cost of 7 extra overlay peers must be a small fraction of
    # 7 extra deep copies.
    assert copy_peak[8] > 4 * copy_peak[1]
    assert (overlay_peak[8] - overlay_peak[1]) * 4 < copy_peak[8] - copy_peak[1]


def test_network_build_peak_rss_stays_near_one_state_copy():
    """Building an 8-endorser network must not replicate the genesis state.

    The peak is budgeted against the footprint of a single populated store:
    the build holds one shared frozen base plus overlays and wiring, so it
    must stay well under the pre-refactor cost of ~9 full copies (canonical
    store + 8 endorsers).
    """
    single_store_peak = traced_peak(populated_base)

    def build_network():
        # A build that borrowed the population an earlier test left in the
        # process would measure the overlays alone.
        factory._shared_genesis.clear()
        config = NetworkConfig(
            cluster="C1",
            orgs=4,
            peers_per_org=2,
            endorsers_per_org=2,
            clients=2,
            database="leveldb",
            block_size=10,
        )
        return pipeline.build_network(
            config,
            lambda: GenChainChaincode(num_keys=STATE_KEYS),
            "fabric-1.4",
            seed=3,
        )

    network_peak = traced_peak(build_network)
    assert network_peak > single_store_peak  # it did build the one copy
    assert network_peak < 3 * single_store_peak, (
        f"8-endorser network build peaked at {network_peak} bytes "
        f"(budget: 3x one {single_store_peak}-byte state copy); endorser "
        "state is being replicated again"
    )
