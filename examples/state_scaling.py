"""State scaling: sweep the endorser count over one shared genesis base.

Endorsing peers each hold a full view of the world state.  Before the
copy-on-write state layer, every endorser deep-copied the genesis population
(O(peers x state) memory and build time), which capped how many endorsers and
how large a key space a sweep could afford.  With shared-base overlays
(``repro.ledger.store``) every extra endorser costs only its divergence.

This example sweeps the endorser count over a genChain genesis, reporting the
peak memory (tracemalloc) and wall-clock of building and running each
deployment, plus how small each peer's committed divergence (delta) stays
relative to the shared base.

Run with::

    python examples/state_scaling.py
"""

from __future__ import annotations

import gc
import time
import tracemalloc

from repro.bench.reporting import format_table, print_report
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.workload.workloads import uniform_workload

STATE_KEYS = 50_000


def build_and_run(endorsers_per_org: int):
    config = NetworkConfig(
        cluster="C1",
        orgs=4,
        peers_per_org=2,
        endorsers_per_org=endorsers_per_org,
        clients=4,
        database="leveldb",
        block_size=20,
    )
    network = build_network(
        config, "genChain", "fabric-1.4", chaincode_kwargs={"num_keys": STATE_KEYS}, seed=11
    )
    spec = uniform_workload("genChain")
    record = network.run(spec.mix, arrival_rate=60.0, duration=3.0, workload_name=spec.name)
    return network.channels[0], record


def main() -> None:
    print(
        f"Sweeping endorser count over one shared {STATE_KEYS:,}-key genesis base "
        "(copy-on-write overlays) ...\n"
    )
    rows = []
    for endorsers_per_org in (1, 2):
        endorsers = 4 * endorsers_per_org
        gc.collect()
        tracemalloc.start()
        started = time.perf_counter()
        network, record = build_and_run(endorsers_per_org)
        elapsed = time.perf_counter() - started
        _current, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()

        deltas = [
            peer.store.delta_size for peer in network.peers if peer.store is not None
        ]
        rows.append(
            (
                endorsers,
                f"{peak / 1e6:.1f}",
                f"{elapsed:.2f}",
                record.tally.appended,
                max(deltas),
                f"{100.0 * max(deltas) / STATE_KEYS:.2f}%",
            )
        )
    print_report(
        format_table(
            (
                "endorsers",
                "peak_mem_mb",
                "wall_s",
                "ledger_txs",
                "max_peer_delta",
                "delta_vs_base",
            ),
            rows,
            title="Endorser scaling on one shared genesis base",
        )
    )
    print(
        "Every endorser layers an OverlayStateStore over the same frozen base:\n"
        "adding endorsers adds only their divergence (the delta column), not\n"
        "another copy of the genesis state.  The second deployment borrows the\n"
        "base the first one built (one frozen genesis per process), so its row\n"
        "is the cost of the overlays alone.  See 'State layer' in\n"
        "docs/ARCHITECTURE.md and benchmarks/test_state_scaling_smoke.py for\n"
        "the deep-copy comparison."
    )


if __name__ == "__main__":
    main()
