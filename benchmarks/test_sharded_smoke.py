"""Smoke guard for sharded multi-process execution (always-on, tier-1).

One 2-channel, ~30k-transaction deployment with ``cross_channel_rate=0`` runs
once on the shared clock and once sharded across two processes (an explicit
count, so the real pool runs on single-core CI runners too): this one drains
channel 0 itself and a pool of one worker drains channel 1.  Every assertion
is exact on every machine:

* **bit identity** — the sharded merge reproduces the shared-clock run
  fingerprint-for-fingerprint;
* **cost of the process boundary, as integers** — the pickled bytes the pool
  sends back per transaction of the channels it drained stay under a pinned
  ceiling (one read/write set per transaction crosses, not one per
  endorsement, and every object crosses as one tuple of its slots); the
  channels this process drained cross nothing.  And no full garbage
  collection starts in this process between ``run()`` entry and the returned
  record (its own shards, unpickling and merging included).

What sharding buys in wall-clock is the ``ehr-8ch-sharded`` row of
``python3 -m perfbench`` against ``ehr-8ch`` (same input, digests equal): a
ratio of two timings is not a tier-1 assertion.
"""

from __future__ import annotations

import gc

from repro.chaincode import create_chaincode
from repro.channels.network import MultiChannelNetwork
from repro.core.fingerprint import record_fingerprint
from repro.fabric.variant import create_variant
from repro.network.config import NetworkConfig
from repro.sim.shard import ExecutionConfig
from repro.workload.workloads import uniform_workload

SMOKE_CHANNELS = 2
SMOKE_ARRIVAL_RATE_PER_CHANNEL = 1000.0
SMOKE_DURATION = 15.0  # ~30k transactions across the two channels
SMOKE_SEED = 11
SMOKE_WORKERS = 2
#: Pickled result bytes the pool may send back per transaction it simulated.
#: Two endorsements per transaction here: a private read/write set each
#: measured 503, one shared with the transaction 410, and each object as one
#: tuple of its slots instead of a ``{slot: value}`` dict 309.
SMOKE_TRANSPORT_BYTES_PER_TX_CEILING = 330


# Module-level factories so the sharded configuration stays picklable.
def make_chaincode():
    spec = uniform_workload("EHR", patients=40)
    return create_chaincode(spec.chaincode, **spec.chaincode_kwargs)


def make_variant():
    return create_variant("fabric-1.4")


def smoke_config(execution: ExecutionConfig) -> NetworkConfig:
    return NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=4,
        block_size=10,
        database="leveldb",
        channels=SMOKE_CHANNELS,
        cross_channel_rate=0.0,
        execution=execution,
    )


def run_smoke_cell(sharded: bool):
    """Run the smoke deployment; returns ``(network, record, full_collections)``."""
    spec = uniform_workload("EHR", patients=40)
    arrival_rate = SMOKE_ARRIVAL_RATE_PER_CHANNEL * SMOKE_CHANNELS
    if sharded:
        network = MultiChannelNetwork(
            smoke_config(ExecutionConfig(shard_workers=SMOKE_WORKERS)),
            chaincode_factory=make_chaincode,
            variant_factory=make_variant,
            seed=SMOKE_SEED,
        )
    else:
        network = MultiChannelNetwork(
            smoke_config(ExecutionConfig()),
            chaincode_factory=make_chaincode,
            variant_factory=make_variant,
            seed=SMOKE_SEED,
        )
    full_collections = []

    def count(phase, info):
        if phase == "start" and info["generation"] == 2:
            full_collections.append(info)

    gc.collect()  # whatever earlier tests left owed is not this run's
    gc.callbacks.append(count)
    try:
        record = network.run(spec.mix, arrival_rate=arrival_rate, duration=SMOKE_DURATION)
    finally:
        gc.callbacks.remove(count)
    return network, record, len(full_collections)


def test_sharded_execution_smoke():
    _, shared_record, shared_collections = run_smoke_cell(sharded=False)
    network, sharded_record, sharded_collections = run_smoke_cell(sharded=True)

    # Identity first: cost means nothing if the answer changed.
    assert sharded_record.execution == "sharded"
    assert sharded_record.shard_count == SMOKE_CHANNELS
    assert network.shard_workers_used == SMOKE_WORKERS
    assert record_fingerprint(sharded_record) == record_fingerprint(shared_record)
    assert len(sharded_record.transactions) == len(shared_record.transactions)

    # This process drains shards 0, N, 2N, ...; only the others cross the pipe.
    shipped = sum(
        len(channel.record.transactions)
        for channel in sharded_record.channel_records
        if channel.index % SMOKE_WORKERS
    )
    bytes_per_tx = network.shard_transport_bytes // shipped
    print(
        f"sharded smoke: {network.shard_transport_bytes:,} pickled bytes for "
        f"{shipped:,} shipped transactions ({bytes_per_tx} per transaction, "
        f"ceiling {SMOKE_TRANSPORT_BYTES_PER_TX_CEILING}); full collections inside run(): "
        f"{sharded_collections} sharded, {shared_collections} shared"
    )
    assert 0 < bytes_per_tx <= SMOKE_TRANSPORT_BYTES_PER_TX_CEILING
    assert (sharded_collections, shared_collections) == (0, 0)
