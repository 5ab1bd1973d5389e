"""Engine speed: the calendar-queue scheduler vs the reference heapq engine.

Quantifies the event-engine overhaul (``repro.sim.engine``): the same
1M-transaction endorse/collect/submit cascade — pre-drawn delay tables, a
watchdog timer armed and cancelled on every eighth transaction, no network
model in the way — is driven once through the preserved pre-overhaul
:class:`~repro.sim.reference.ReferenceSimulator` and once through the
bucketed :class:`~repro.sim.engine.Simulator`, and the events/sec ratio is
the headline acceptance number.  Two full-pipeline cells (a single-channel
and an 8-channel Fabric deployment at matched per-channel load, instrumented
through :class:`~repro.sim.profile.EngineProfiler`) record the wall-clock and
events/sec the calendar engine sustains when every event carries real
endorsement, ordering and validation work.

A second pair of cells measures the sharded execution path
(:class:`~repro.channels.network.MultiChannelNetwork`): the same 8-channel
deployment with ``cross_channel_rate=0`` runs once on the shared clock and
once sharded across worker processes, and their merged records must compare
bit-identical before the sharded events/sec is allowed to count.

The run records all cells to ``BENCH_engine_speed.json`` at the repo root and
asserts the acceptance bars in-test: the calendar engine must sustain at
least ``SPEEDUP_FLOOR``x the events/sec of the heapq reference on the
1M-transaction cascade, and the sharded 8-channel cell must sustain
``SHARDED_SPEEDUP_FLOOR``x the single-process 8-channel cell on machines with
``SHARDED_MIN_CORES`` or more cores (``SHARDED_2CORE_SPEEDUP_FLOOR``x with
two or three).

Three unrecorded guards are the wall-clock twins of tier-1 smoke tests, which
pin only machine-independent integers.  Of ``test_observability_overhead.py``:
the engine of a deployment with observability disabled must sustain
``DISABLED_OBSERVABILITY_FLOOR``x the bare engine's events/sec on the 30k
smoke cascade.  Of ``test_engine_speed_smoke.py``: the calendar engine must
sustain ``SMOKE_SPEEDUP_FLOOR``x the reference on that cascade.  Of
``test_pipeline_speed_smoke.py``: its pipeline cell must sustain
``SMOKE_EVENTS_PER_SEC_FLOOR`` events/sec.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

from test_observability_overhead import SMOKE_TRANSACTIONS, build_disabled_network
from test_pipeline_speed_smoke import SMOKE_EVENTS, pipeline_cell

from repro.bench.enginespeed import cascade_cell, run_cascade
from repro.chaincode import create_chaincode
from repro.channels.network import MultiChannelNetwork
from repro.core.fingerprint import record_fingerprint
from repro.fabric.variant import create_variant
from repro.lifecycle.pipeline import build_network
from repro.network.config import NetworkConfig
from repro.sim.collector import quiet_collector
from repro.sim.engine import Simulator
from repro.sim.profile import EngineProfiler
from repro.sim.shard import ExecutionConfig, available_cores
from repro.workload.workloads import uniform_workload

REPO_ROOT = Path(__file__).resolve().parent.parent
RESULT_PATH = REPO_ROOT / "BENCH_engine_speed.json"

#: The paper-scale cascade: one million transactions, ~5 events each.
CASCADE_TRANSACTIONS = 1_000_000
#: Acceptance: calendar events/sec over heapq events/sec on the 1M cascade.
SPEEDUP_FLOOR = 3.0

#: Full-pipeline cells at matched per-channel load (400 tx/s per channel).
NETWORK_CHANNELS = (1, 8)
NETWORK_ARRIVAL_RATE_PER_CHANNEL = 400.0
NETWORK_DURATION = 15.0
NETWORK_SEED = 11

#: The single-channel pipeline cell as committed before the allocation-lean
#: hot-path overhaul (BENCH_engine_speed.json at commit 9f9cda6, cores=1).
#: The overhaul must sustain at least ``NETWORK_1CH_SPEEDUP_FLOOR`` times
#: this; the floor is deliberately below the ~2.2x measured on an idle
#: machine to leave headroom for noisy shared CI runners.
NETWORK_1CH_BASELINE_EVENTS_PER_SEC = 48_802.24
NETWORK_1CH_SPEEDUP_FLOOR = 2.0

#: The sharded headline pair: 8 independent channels (``cross_channel_rate=0``),
#: shared clock vs one worker process per shard.
SHARDED_CHANNELS = 8
#: Acceptance: sharded over shared-clock events/sec on the rate-0 cell, only
#: asserted on machines with enough cores for the fan-out to mean anything.
SHARDED_SPEEDUP_FLOOR = 2.0
SHARDED_MIN_CORES = 4
#: The same pair on a 2- or 3-core machine (two workers at best): the floor
#: the tier-1 sharded smoke used to assert as a wall-clock ratio.
SHARDED_2CORE_SPEEDUP_FLOOR = 1.5
#: The engine of a deployment with observability disabled must stay within 2%
#: of the bare engine's events/sec (median of paired rounds): the disabled
#: path must not grow a per-event branch or hook in the dispatch loop.
DISABLED_OBSERVABILITY_FLOOR = 0.98
DISABLED_OBSERVABILITY_ROUNDS = 5
#: The 30k smoke cascade: calendar over heapq-reference events/sec.  Below
#: the 1M cascade's ``SPEEDUP_FLOOR`` to leave headroom for noisy shared CI
#: runners; the measured ratio on an idle machine is ~3.6x.
SMOKE_SPEEDUP_FLOOR = 2.5
#: The smoke pipeline cell, best of ``SMOKE_TRIALS`` warm runs.  Far below
#: the ~110k ev/s a warm idle single core sustains, leaving headroom for slow
#: shared CI runners; the tight regression bar is ``NETWORK_1CH_SPEEDUP_FLOOR``.
SMOKE_EVENTS_PER_SEC_FLOOR = 30_000.0
SMOKE_TRIALS = 3


# Module-level factories so the sharded configuration stays picklable.
def make_chaincode():
    spec = uniform_workload("EHR", patients=40)
    return create_chaincode(spec.chaincode, **spec.chaincode_kwargs)


def make_variant():
    return create_variant("fabric-1.4")


#: Simulated seconds of the discarded warm-up run before each network cell.
NETWORK_WARMUP_DURATION = 2.0
#: Profiled runs per network cell; the fastest one is recorded.
NETWORK_TRIALS = 3


def network_cell(channels: int) -> dict:
    """Run one full-pipeline deployment on the calendar engine, profiled.

    Both cells run the EHR chaincode under the uniform mix with the arrival
    rate scaled by the channel count, so every channel sees the same load and
    the 8-channel cell measures how the shared simulator clock holds up when
    eight slices interleave on it.

    Measurement protocol — the cell reports capability, not process history:

    * one discarded warm-up run first (the cascade cells warm only the
      engine; the first pass through the network/chaincode/workload code
      paths in a process runs ~25% below steady state);
    * ``NETWORK_TRIALS`` profiled runs, best one recorded (every trial
      dispatches the identical schedule — asserted — so "best of" only
      strips scheduler noise);
    * no collector handling here: ``run()`` defers full collections itself
      (:func:`repro.sim.collector.quiet_collector`), so the cell times the
      program a user runs.
    """
    spec = uniform_workload("EHR", patients=40)
    config = NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=4,
        block_size=10,
        database="leveldb",
        channels=channels,
        cross_channel_rate=0.05 if channels > 1 else 0.0,
    )
    def build():
        return build_network(
            config,
            chaincode_factory=lambda: create_chaincode(spec.chaincode, **spec.chaincode_kwargs),
            variant_factory="fabric-1.4",
            seed=NETWORK_SEED,
        )

    arrival_rate = NETWORK_ARRIVAL_RATE_PER_CHANNEL * channels
    build().run(spec.mix, arrival_rate=arrival_rate, duration=NETWORK_WARMUP_DURATION)
    trials = []
    for _ in range(NETWORK_TRIALS):
        network = build()
        profiler = EngineProfiler(network.sim)
        with profiler:
            record = network.run(
                spec.mix, arrival_rate=arrival_rate, duration=NETWORK_DURATION
            )
        report = profiler.report()
        report["transactions"] = len(record.transactions)
        trials.append(report)
    # Determinism: every trial dispatched the identical schedule.
    assert len({(t["events"], t["transactions"]) for t in trials}) == 1
    best = max(trials, key=lambda t: t["events_per_sec"])
    return {
        "cell": f"network-{channels}ch",
        "engine": "calendar",
        "channels": channels,
        "arrival_rate": arrival_rate,
        "duration": NETWORK_DURATION,
        "transactions": best["transactions"],
        "events": best["events"],
        "wall_seconds": best["wall_seconds"],
        "events_per_sec": best["events_per_sec"],
        "trial_events_per_sec": [t["events_per_sec"] for t in trials],
        "max_queue_depth": best["max_queue_depth"],
    }


def rate0_cell(sharded: bool) -> tuple:
    """Run the 8-channel rate-0 deployment; returns ``(row, record)``.

    Same load shape as :func:`network_cell` but with zero cross-channel
    traffic, so the topology partitions into 8 independent shards and the
    sharded path can distribute them across worker processes.
    """
    spec = uniform_workload("EHR", patients=40)
    arrival_rate = NETWORK_ARRIVAL_RATE_PER_CHANNEL * SHARDED_CHANNELS
    execution = ExecutionConfig(shard_workers=0) if sharded else ExecutionConfig()
    config = NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=4,
        block_size=10,
        database="leveldb",
        channels=SHARDED_CHANNELS,
        cross_channel_rate=0.0,
        execution=execution,
    )
    if sharded:
        network = MultiChannelNetwork(
            config, chaincode_factory=make_chaincode, variant_factory=make_variant,
            seed=NETWORK_SEED,
        )
        record = network.run(spec.mix, arrival_rate=arrival_rate, duration=NETWORK_DURATION)
        report = network.engine_summary
        workers = network.shard_workers_used
    else:
        network = MultiChannelNetwork(
            config, chaincode_factory=make_chaincode, variant_factory=make_variant,
            seed=NETWORK_SEED,
        )
        with EngineProfiler(network.sim) as profiler:
            record = network.run(spec.mix, arrival_rate=arrival_rate, duration=NETWORK_DURATION)
        report = profiler.report()
        workers = 1
    row = {
        "cell": f"network-{SHARDED_CHANNELS}ch-rate0" + ("-sharded" if sharded else ""),
        "engine": "calendar",
        "execution": record.execution,
        "channels": SHARDED_CHANNELS,
        "shard_workers": workers,
        "arrival_rate": arrival_rate,
        "duration": NETWORK_DURATION,
        "transactions": len(record.transactions),
        "events": report["events"],
        "wall_seconds": report["wall_seconds"],
        "events_per_sec": report["events_per_sec"],
        "max_queue_depth": report["max_queue_depth"],
    }
    return row, record


def test_engine_speed_grid_and_record():
    rows = []

    cascade = {}
    for engine in ("heapq-reference", "calendar"):
        row = cascade_cell(engine, CASCADE_TRANSACTIONS)
        row["cell"] = "cascade-1m"
        cascade[engine] = row
        rows.append(row)
        print(
            f"cascade tx={row['transactions']:>9,} engine={engine:>16}: "
            f"{row['events']:>9,} events in {row['wall_seconds']:7.2f}s "
            f"({row['events_per_sec']:>9,.0f} ev/s)"
        )
    speedup = cascade["calendar"]["events_per_sec"] / cascade["heapq-reference"]["events_per_sec"]
    print(f"cascade speedup: {speedup:.2f}x (floor {SPEEDUP_FLOOR}x)")

    network_rows = {}
    for channels in NETWORK_CHANNELS:
        row = network_cell(channels)
        network_rows[channels] = row
        rows.append(row)
        print(
            f"network channels={channels}: {row['events']:>9,} events in "
            f"{row['wall_seconds']:7.2f}s ({row['events_per_sec']:>9,.0f} ev/s, "
            f"{row['transactions']:,} transactions)"
        )
    pipeline_speedup = (
        network_rows[1]["events_per_sec"] / NETWORK_1CH_BASELINE_EVENTS_PER_SEC
    )
    print(
        f"pipeline speedup vs committed baseline: {pipeline_speedup:.2f}x "
        f"(floor {NETWORK_1CH_SPEEDUP_FLOOR}x over "
        f"{NETWORK_1CH_BASELINE_EVENTS_PER_SEC:,.0f} ev/s)"
    )

    cores = available_cores()
    shared_row, shared_record = rate0_cell(sharded=False)
    sharded_row, sharded_record = rate0_cell(sharded=True)
    sharded_speedup = sharded_row["events_per_sec"] / shared_row["events_per_sec"]
    for row in (shared_row, sharded_row):
        rows.append(row)
        print(
            f"{row['cell']}: {row['events']:>9,} events in {row['wall_seconds']:7.2f}s "
            f"({row['events_per_sec']:>9,.0f} ev/s, {row['shard_workers']} workers)"
        )
    print(
        f"sharded speedup: {sharded_speedup:.2f}x on {cores} cores "
        f"(floor {SHARDED_SPEEDUP_FLOOR}x when cores >= {SHARDED_MIN_CORES}, "
        f"{SHARDED_2CORE_SPEEDUP_FLOOR}x when cores >= 2)"
    )

    # Every row records the core count it was measured on, and a core-gated
    # acceptance that did not run on this machine is annotated rather than
    # silently absent from the record.
    for row in rows:
        row["cores"] = cores
    if cores < 2:
        sharded_row["skipped_floor"] = True

    record = {
        "benchmark": "engine_speed",
        "grid": {
            "cascade_transactions": CASCADE_TRANSACTIONS,
            "network_channels": list(NETWORK_CHANNELS),
            "network_arrival_rate_per_channel": NETWORK_ARRIVAL_RATE_PER_CHANNEL,
            "network_duration": NETWORK_DURATION,
            "speedup_floor": SPEEDUP_FLOOR,
            "network_1ch_baseline_events_per_sec": NETWORK_1CH_BASELINE_EVENTS_PER_SEC,
            "network_1ch_speedup_floor": NETWORK_1CH_SPEEDUP_FLOOR,
            "sharded_channels": SHARDED_CHANNELS,
            "sharded_speedup_floor": SHARDED_SPEEDUP_FLOOR,
            "sharded_min_cores": SHARDED_MIN_CORES,
            "sharded_2core_speedup_floor": SHARDED_2CORE_SPEEDUP_FLOOR,
        },
        "cascade_speedup": speedup,
        "pipeline_speedup": pipeline_speedup,
        "sharded_speedup": sharded_speedup,
        "cores": cores,
        "rows": rows,
    }
    RESULT_PATH.write_text(json.dumps(record, indent=2) + "\n")

    # Acceptance: >= 3x events/sec over the pre-overhaul heapq engine on the
    # paper-scale cascade, and both engines dispatch the identical schedule.
    assert cascade["calendar"]["events"] == cascade["heapq-reference"]["events"]
    assert cascade["calendar"]["submitted"] == cascade["heapq-reference"]["submitted"]
    assert speedup >= SPEEDUP_FLOOR, (
        f"calendar engine sustained only {speedup:.2f}x the reference events/sec "
        f"({cascade['calendar']['events_per_sec']:,.0f} vs "
        f"{cascade['heapq-reference']['events_per_sec']:,.0f}); floor is {SPEEDUP_FLOOR}x"
    )

    # Pipeline acceptance: the allocation-lean hot path must hold >= 2x the
    # committed pre-overhaul single-channel events/sec (the process is warm
    # here — the cascade cells above already ran in it).
    assert pipeline_speedup >= NETWORK_1CH_SPEEDUP_FLOOR, (
        f"single-channel pipeline sustained only "
        f"{network_rows[1]['events_per_sec']:,.0f} ev/s = {pipeline_speedup:.2f}x the "
        f"committed baseline {NETWORK_1CH_BASELINE_EVENTS_PER_SEC:,.0f} ev/s; "
        f"floor is {NETWORK_1CH_SPEEDUP_FLOOR}x"
    )

    # Sharded acceptance: identical answers everywhere; >= 2x events/sec over
    # the shared clock wherever the fan-out has cores to land on.
    assert record_fingerprint(sharded_record) == record_fingerprint(shared_record)
    if cores >= 2:
        floor = SHARDED_SPEEDUP_FLOOR if cores >= SHARDED_MIN_CORES else SHARDED_2CORE_SPEEDUP_FLOOR
        assert sharded_speedup >= floor, (
            f"sharded execution sustained only {sharded_speedup:.2f}x the shared "
            f"clock ({sharded_row['events_per_sec']:,.0f} vs "
            f"{shared_row['events_per_sec']:,.0f} ev/s) on {cores} cores; "
            f"floor is {floor}x"
        )


def timed_cascade(sim: Simulator) -> float:
    """Events/sec of one smoke cascade under the collector policy of a real run.

    The disabled-path simulator belongs to a full deployment whose live heap
    (genesis population, peers, ledger) would otherwise make full collector
    passes during the timed window slower than the bare-simulator baseline's
    — heap size, not dispatch cost, which is the thing under test here.  The
    bare cascade enters no run scope of its own, so the scope is entered here.
    """
    with quiet_collector():
        return run_cascade(sim, SMOKE_TRANSACTIONS)["events_per_sec"]


def test_disabled_observability_keeps_the_engine_at_baseline_speed():
    # Pair a baseline and a disabled-path run back to back each round, then
    # judge the median of the per-round ratios: drift on a shared runner
    # (thermal, noisy neighbors) hits both sides of a pair equally, and the
    # median discards the outlier rounds that a best-of or mean would keep.
    ratios = []
    for _ in range(DISABLED_OBSERVABILITY_ROUNDS):
        baseline = timed_cascade(Simulator())
        ratios.append(timed_cascade(build_disabled_network().sim) / baseline)

    ratio = statistics.median(ratios)
    assert ratio >= DISABLED_OBSERVABILITY_FLOOR, (
        f"engine with observability disabled sustained a median {ratio:.3f}x of the "
        f"baseline events/sec over {DISABLED_OBSERVABILITY_ROUNDS} paired rounds "
        f"({[f'{r:.3f}' for r in ratios]}); floor is {DISABLED_OBSERVABILITY_FLOOR}x — "
        f"the disabled path must not touch the dispatch loop"
    )


def test_calendar_engine_beats_heapq_reference_on_cascade():
    reference = cascade_cell("heapq-reference", SMOKE_TRANSACTIONS)
    calendar = cascade_cell("calendar", SMOKE_TRANSACTIONS)
    assert calendar["events"] == reference["events"]

    speedup = calendar["events_per_sec"] / reference["events_per_sec"]
    assert speedup >= SMOKE_SPEEDUP_FLOOR, (
        f"calendar engine sustained only {speedup:.2f}x the reference events/sec "
        f"({calendar['events_per_sec']:,.0f} vs {reference['events_per_sec']:,.0f}); "
        f"smoke floor is {SMOKE_SPEEDUP_FLOOR}x"
    )


def test_pipeline_sustains_smoke_floor():
    # One discarded warm-up run, then best-of-``SMOKE_TRIALS``: the first run
    # of a cell in a fresh process is dominated by bytecode warm-up and
    # allocator growth (~30% slower than steady state), and "best of" is the
    # standard way to ask "how fast can this machine run it" without
    # averaging in scheduler noise.  The collector is left alone: ``run()``
    # defers full collections itself, so the trials time the program a user
    # runs.
    pipeline_cell()
    trials = [pipeline_cell() for _ in range(SMOKE_TRIALS)]
    assert all(trial["events"] == SMOKE_EVENTS for trial in trials)

    best = max(trial["events_per_sec"] for trial in trials)
    assert best >= SMOKE_EVENTS_PER_SEC_FLOOR, (
        f"pipeline sustained only {best:,.0f} ev/s (best of {SMOKE_TRIALS} warm "
        f"trials, {SMOKE_EVENTS:,} events each); smoke floor is "
        f"{SMOKE_EVENTS_PER_SEC_FLOOR:,.0f} ev/s"
    )
