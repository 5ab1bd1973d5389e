"""Smoke guard for the allocation-lean transaction pipeline (always-on, tier-1).

A short single-channel EHR deployment is driven through the event engine with
an :class:`~repro.sim.profile.EngineProfiler` attached, and the *work* it did
is pinned as integers — events dispatched, transactions submitted, events per
transaction.  A change that adds an event per transaction (a new hop, a
watchdog armed where none was, a per-peer callback that used to be shared, a
per-endorser arrival event that used to be one per round) moves these numbers
on every machine alike, and trips here inside the default test selection.

Two cells, because the endorsement fan-out is the bulk of the budget and
scales with the number of endorsers N (``2N + 3`` events per attempt plus the
block-amortised rest, see "Hot path" in docs/ARCHITECTURE.md): the C1 smoke
cell has two endorsers, the paper's default cell (cluster C2, policy P0) has
eight, and a fan-out regression that costs one event per endorser is four
times louder there.

A third cell puts the paper topology on eight uncoupled channels, each on its
own clock, for the per-attempt work *outside* the fan-out (see the second table
of "Hot path"; the plan moves none of it, so the counts are the shared clock's):
lifecycle emissions and the handler calls they make, placement asked per
shard draw, folds of the channels' tallies.  Each is pinned as a count that
is the same on every machine.

A fourth runs the perfbench ``sweep-grid`` plan shape in process and counts
what its twelve cells *build* before their first transaction: one genesis, one
Zipf table and no ownership table for the whole sweep, not one per cell.

A fifth is the perfbench ``scm-fpp`` cell cut short, and pins what Fabric++'s
reorder decided — blocks reordered, dependency edges, transactions aborted —
and what its endorsements cost: chaincode executions, stubs, ``KeyRead`` s.
The same population on Fabric 1.4 pins how many Equation 1 checks the
clients run.

What the integers cannot see — the same events dispatched more slowly
(``__dict__`` instances, per-call stream resolution, per-peer block
revalidation) — is a wall-clock question, and a wall-clock number is a
``python3 -m perfbench`` row or it is not in the tree: ``wall_s`` and
``host_us_per_tx`` on ``ehr-paper``, the same C2 cell at paper length.
"""

from __future__ import annotations

import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro import ExperimentConfig, ExperimentRunner, SweepPlan, run_repetition
from repro.chaincode import Chaincode, ChaincodeStub, GenChainChaincode
from repro.chaincode import api as chaincode_api
from repro.channels.group import ChannelGroup
from repro.channels.topology import ChannelTopology
from repro.channels import merge as channel_merge
from repro.core import LedgerAnalyzer
from repro.fabric import fabricpp
from repro.ledger import factory
from repro.ledger.block import ValidationCode
from repro.ledger.kvstore import VersionedKVStore
from repro.lifecycle import tally
from repro.lifecycle.events import LifecycleEventType
from repro.lifecycle.pipeline import build_network
from repro.network import client_node
from repro.network import network as channel_slice
from repro.network.config import NetworkConfig
from repro.sim.profile import EngineProfiler
from repro.workload.distributions import ZipfianDistribution, cumulative_weights
from repro.workload.workloads import synthetic_workload, uniform_workload

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests" / "golden"))

import corpus  # noqa: E402
from corpus import assert_pinned  # noqa: E402

SMOKE_ARRIVAL_RATE = 400.0
SMOKE_DURATION = 4.0
SMOKE_SEED = 11
#: What the cell above does, exactly, on any machine.  Its two committers
#: (peer1 of each organization: no replica, not the reference peer) settle
#: their blocks without events; while they had two events per block, 12,657.
SMOKE_EVENTS = 12_013
SMOKE_TRANSACTIONS = 1_601
#: What it does with every endorsement response an event of its own.
SMOKE_EVENTS_PER_RESPONSE = 13_614

#: The paper's default topology (Table 3), cut short: cluster C2, policy P0,
#: eight endorsers per proposal, 100 tx/s.  19.214 events per attempt:
#: 2 * 8 + 3, plus 0.214 of block cutting and of the deliveries and commits
#: of the eight replicas (7,945 while the 24 committers had events too).
PAPER_ARRIVAL_RATE = 100.0
PAPER_EVENTS = 7_705
PAPER_TRANSACTIONS = 401
#: The same cell on Streamchain, a block per transaction: 2 * 8 + 3 per
#: attempt plus 2 * 8 + 1 per block, 36 per attempt (84, 33,684 events, while
#: every peer had two events per block).
STREAMCHAIN_EVENTS = 14_436


#: The same topology on eight channels of one deployment (hash placement,
#: Zipf 1.0 over 40 patients, 100 tx/s per channel, two simulated seconds),
#: unobserved: the corpus's ``8-channel/EHR-C2`` cell.
EIGHT_CHANNEL_EVENTS = 29_838
EIGHT_CHANNEL_TRANSACTIONS = 1_553
#: Lifecycle emissions of the run: the calls of a handler on every type of
#: every channel bus.
EIGHT_CHANNEL_EMISSIONS = 7_765
#: Base-distribution draws the eight shards' rejection loops consume — and the
#: number of ``channel_of_index`` calls they used to make.  Where the run leaves
#: every workload stream is in the golden corpus, pinned while every draw still
#: paid a ``sample`` and a ``channel_of_index``.
EIGHT_CHANNEL_BASE_DRAWS = 15_017

#: Fabric++ on SCM (cluster C2, 100 tx/s, four simulated seconds): blocks its
#: ordering service reordered, dependency edges summed over them, and
#: transactions it aborted to break cycles.
REORDER_BLOCKS = 5
REORDER_EDGES = 2_494
REORDER_ABORTED = 137
#: Chaincode executions, stubs constructed and ``KeyRead`` s minted by the same
#: cell's 412 attempts, with each channel's result table shared across
#: transactions.  While results lived for one transaction: 412, 412, 79,518.
SCM_EXECUTIONS = 233
SCM_STUBS = 233
SCM_KEY_READS = 5_078

#: Fabric 1.4 on the same SCM population at 200 tx/s for four simulated
#: seconds: attempts, and Equation 1 checks the clients ran.  Only attempts
#: whose endorsements simulated different read/write sets are checked — while
#: every attempt was, the count was 852 — and each of those was a mismatch.
EQUATION_ONE_ATTEMPTS = 852
EQUATION_ONE_CHECKS = 56


def smoke_config() -> NetworkConfig:
    return NetworkConfig(
        cluster="C1",
        orgs=2,
        peers_per_org=2,
        clients=4,
        block_size=10,
        database="leveldb",
    )


def pipeline_cell(
    config: NetworkConfig | None = None,
    arrival_rate: float = SMOKE_ARRIVAL_RATE,
    variant: str = "fabric-1.4",
) -> dict:
    """One short single-channel full-pipeline run, profiled, its chain recorded."""
    spec = uniform_workload("EHR", patients=40)
    config = config or smoke_config()
    network = build_network(
        config,
        spec.chaincode,
        variant,
        chaincode_kwargs=spec.chaincode_kwargs,
        seed=SMOKE_SEED,
        record_chain=True,
    )
    profiler = EngineProfiler(network.sim)
    with profiler:
        record = network.run(spec.mix, arrival_rate=arrival_rate, duration=SMOKE_DURATION)
    report = profiler.report()
    report["transactions"] = len(record.transactions)
    #: Responses that ride on their round's one wake-up: all but one per attempt.
    report["folded_responses"] = sum(len(tx.endorsements) - 1 for tx in record.transactions)
    return report


def test_pipeline_work_is_pinned_per_transaction():
    first = pipeline_cell()
    second = pipeline_cell()

    # Determinism first: every run dispatches the exact same schedule.
    assert (second["events"], second["transactions"]) == (first["events"], first["transactions"])

    assert first["transactions"] == SMOKE_TRANSACTIONS
    assert first["events"] == SMOKE_EVENTS, (
        f"the pipeline dispatched {first['events']:,} events for "
        f"{first['transactions']:,} transactions "
        f"({first['events'] / first['transactions']:.3f} per transaction); pinned "
        f"{SMOKE_EVENTS:,} ({SMOKE_EVENTS / SMOKE_TRANSACTIONS:.3f} per transaction)"
    )
    # The identity behind the integer: a round of N responses wakes the client
    # once, where it used to be woken N times.
    assert SMOKE_EVENTS_PER_RESPONSE - first["events"] == first["folded_responses"] == 1_601


def test_paper_topology_work_is_pinned_per_attempt():
    cell = pipeline_cell(
        NetworkConfig(cluster="C2", database="leveldb"), arrival_rate=PAPER_ARRIVAL_RATE
    )
    assert cell["folded_responses"] == 7 * cell["transactions"]  # eight endorsers each
    assert (cell["events"], cell["transactions"]) == (PAPER_EVENTS, PAPER_TRANSACTIONS), (
        f"the C2 / P0 cell dispatched {cell['events']:,} events for "
        f"{cell['transactions']:,} attempts "
        f"({cell['events'] / cell['transactions']:.3f} per attempt); pinned "
        f"{PAPER_EVENTS:,} / {PAPER_TRANSACTIONS:,} "
        f"({PAPER_EVENTS / PAPER_TRANSACTIONS:.3f} per attempt)"
    )


def test_streamchain_work_is_pinned_per_block():
    cell = pipeline_cell(
        NetworkConfig(cluster="C2", database="leveldb"),
        arrival_rate=PAPER_ARRIVAL_RATE,
        variant="streamchain",
    )
    assert cell["transactions"] == PAPER_TRANSACTIONS
    # The fan-out, then per block a consensus completion and a delivery and a
    # validation completion for each of the eight replicas.
    assert cell["events"] == (2 * 8 + 3 + 2 * 8 + 1) * cell["transactions"] == STREAMCHAIN_EVENTS


# ------------------------------------------- eight channels, outside the fan-out
class CountedZipfian(ZipfianDistribution):
    """Zipf 1.0 that counts the draws handed out by its samplers."""

    def __init__(self) -> None:
        super().__init__(1.0)
        self.draws = 0

    def sampler(self, rng, population):
        draw = super().sampler(rng, population)

        def counted() -> int:
            self.draws += 1
            return draw()

        return counted


def eight_channel_cell(monkeypatch, listen: bool = False) -> dict:
    """The paper topology on eight channels, with everything countable counted."""
    placements = []
    channel_of_index = ChannelTopology.channel_of_index

    def counted_placement(self, index, population):
        placements.append(population)
        return channel_of_index(self, index, population)

    monkeypatch.setattr(ChannelTopology, "channel_of_index", counted_placement)
    ChannelTopology.owners.cache_clear()  # a table an earlier test built is not rebuilt
    config = corpus.PAPER_EIGHT_CHANNELS
    network = corpus.build(config)
    assert network.execution_mode == "sharded"
    heard, channels, profilers = [], [], []
    drain = ChannelGroup.run

    def counted_drain(group, *args):
        # Each channel's group is built and drained in this process, one at a time.
        channels.extend(group.channels)
        if listen:
            for channel in group.channels:
                for event_type in LifecycleEventType:
                    channel.bus.handle(event_type, heard.append)
        profilers.append(EngineProfiler(group.sim))
        with profilers[-1]:
            return drain(group, *args)

    monkeypatch.setattr(ChannelGroup, "run", counted_drain)
    keys = CountedZipfian()
    record = network.run(
        config.workload.mix,
        arrival_rate=config.arrival_rate,
        duration=config.duration,
        key_distribution=keys,
    )
    assert [channel.index for channel in channels] == list(range(8))
    return {
        "record": record,
        "events": sum(profiler.events for profiler in profilers),
        "transactions": record.submitted_count,
        "emissions": sum(record.lifecycle_counts.values()),
        "events_heard": len(heard),
        "placements": placements,
        "base_draws": keys.draws,
        "streams": corpus.streams_entry(SimpleNamespace(channels=channels)),
    }


def test_eight_channel_attempt_pays_for_nothing_nobody_reads(monkeypatch):
    cell = eight_channel_cell(monkeypatch)
    assert (cell["events"], cell["transactions"]) == (
        EIGHT_CHANNEL_EVENTS,
        EIGHT_CHANNEL_TRANSACTIONS,
    )
    # Eight channel buses: every emission is counted on its channel's bus.
    assert cell["emissions"] == EIGHT_CHANNEL_EMISSIONS
    # Placement is asked once per patient, when the one table the eight shards
    # read is built, and never by a draw (it used to be once per base draw) ...
    assert cell["placements"] == [40] * 40
    assert cell["base_draws"] == EIGHT_CHANNEL_BASE_DRAWS
    # ... while the workload streams are consumed exactly as they were.
    assert_pinned("8-channel/EHR-C2", "workload-streams", cell["streams"])


def test_one_handler_on_every_type_of_every_channel_bus_is_called_per_emission(monkeypatch):
    cell = eight_channel_cell(monkeypatch, listen=True)
    assert cell["emissions"] == EIGHT_CHANNEL_EMISSIONS
    # Called once per emission, on the channel's bus, with the transaction.
    assert cell["events_heard"] == EIGHT_CHANNEL_EMISSIONS
    assert (cell["events"], cell["transactions"]) == (
        EIGHT_CHANNEL_EVENTS,
        EIGHT_CHANNEL_TRANSACTIONS,
    )


def test_each_tally_is_folded_once_and_the_analysis_folds_none(monkeypatch):
    folds = []

    def counted(tallies):
        folds.append(len(tallies))
        return tally.fold(tallies)

    for module in (channel_slice, channel_merge):
        monkeypatch.setattr(module, "fold", counted)
    record = eight_channel_cell(monkeypatch)["record"]
    # Each channel where it was simulated, then the aggregate once at the merge.
    assert folds == [1] * 8 + [8]
    analysis = LedgerAnalyzer().analyze(record)
    assert analysis.metrics.submitted_transactions == record.submitted_count > 0
    assert folds == [1] * 8 + [8] and record.chain is None


# ------------------------------------------------ what a sweep's cells share
@pytest.fixture
def built(monkeypatch):
    """Counts of what cells build before their first transaction, memos empty."""
    counts = {"initial_state": 0, "populate": 0, "channel_of_index": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(GenChainChaincode, "initial_state")
    counted(VersionedKVStore, "populate")
    counted(ChannelTopology, "channel_of_index")
    factory._shared_genesis.clear()
    ChannelTopology.owners.cache_clear()
    cumulative_weights.cache_clear()
    return counts


def sweep_base(num_keys: int, **network) -> ExperimentConfig:
    """``perfbench.workloads._sweep_base`` over a smaller population."""
    return ExperimentConfig(
        variant="fabric-1.4",
        workload=synthetic_workload("UH", include_range=False, num_keys=num_keys),
        network=NetworkConfig(cluster="C2", **network),
        arrival_rate=100.0,
        duration=1.0,
        zipf_skew=1.0,
        seed=SMOKE_SEED,
    )


def test_a_sweep_builds_what_its_cells_share_once(built):
    plan = SweepPlan(
        base=sweep_base(2000),
        variants=("fabric-1.4", "fabricsharp", "streamchain"),
        block_sizes=(10, 100),
        arrival_rates=(25, 100),
    )
    outcome = ExperimentRunner(workers=1).run_sweep(plan)
    assert len(outcome.results) == 12
    assert all(result.analyses[0].metrics.submitted_transactions for result in outcome.results)
    # One genesis and one Zipf table for twelve cells (twelve of each before),
    # and a one-channel topology owns every index without being asked (24,000).
    assert built == {"initial_state": 1, "populate": 1, "channel_of_index": 0}
    assert cumulative_weights.cache_info().misses == 1


def test_eight_channels_overlay_one_genesis_and_read_one_ownership_table(built):
    analysis = run_repetition(sweep_base(2000, channels=8, database="leveldb"), 0)
    assert len(analysis.channel_analyses) == 8 and analysis.metrics.submitted_transactions
    # One population for eight channels (eight before), and placement asked
    # once per key (eight times per key before).
    assert built == {"initial_state": 1, "populate": 1, "channel_of_index": 2000}


# ------------------------------------------------- what Fabric++'s reorder decides
def test_fabricpp_reorder_decisions_are_pinned(monkeypatch):
    edges = []
    reorder_batch = fabricpp.reorder_batch

    def counted(transactions):
        serialized, aborted, edge_count = reorder_batch(transactions)
        edges.append(edge_count)
        return serialized, aborted, edge_count

    monkeypatch.setattr(fabricpp, "reorder_batch", counted)
    work = {"executions": 0, "stubs": 0, "key_reads": 0}

    def counting(owner, name, key):
        original = getattr(owner, name)

        def wrapper(*args):
            work[key] += 1
            return original(*args)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Chaincode, "execute", "executions")
    counting(ChaincodeStub, "__init__", "stubs")
    counting(chaincode_api, "KeyRead", "key_reads")
    config = ExperimentConfig(
        variant="fabric++",
        workload=uniform_workload("SCM", units_per_lsp=[400, 400, 400, 400, 800]),
        network=NetworkConfig(cluster="C2"),
        arrival_rate=100.0,
        duration=4.0,
        zipf_skew=1.0,
        seed=SMOKE_SEED,
    )
    record = run_repetition(config, 0, record_chain=True).record
    reordered = [block for block in record.ledger if block.reordered]
    aborted = [
        tx for tx in record.transactions
        if tx.validation_code is ValidationCode.ABORTED_BY_REORDERING
    ]
    assert (len(reordered), sum(edges), len(aborted)) == (
        REORDER_BLOCKS,
        REORDER_EDGES,
        REORDER_ABORTED,
    )
    assert len(edges) == len(reordered)
    # The range scans behind those edges, executed once per (call, state).
    assert len(record.transactions) == 412
    assert work == {
        "executions": SCM_EXECUTIONS,
        "stubs": SCM_STUBS,
        "key_reads": SCM_KEY_READS,
    }


def test_equation_one_runs_only_where_endorsements_disagree(monkeypatch):
    checked = []
    read_sets_consistent = client_node.read_sets_consistent

    def counted(read_sets):
        checked.append(len(read_sets))
        return read_sets_consistent(read_sets)

    monkeypatch.setattr(client_node, "read_sets_consistent", counted)
    config = ExperimentConfig(
        variant="fabric-1.4",
        workload=uniform_workload("SCM", units_per_lsp=[400, 400, 400, 400, 800]),
        network=NetworkConfig(cluster="C2"),
        arrival_rate=200.0,
        duration=4.0,
        zipf_skew=1.0,
        seed=SMOKE_SEED,
    )
    transactions = run_repetition(config, 0, record_chain=True).record.transactions
    mismatched = sum(tx.endorsement_mismatch for tx in transactions)
    assert (len(transactions), len(checked)) == (EQUATION_ONE_ATTEMPTS, EQUATION_ONE_CHECKS)
    assert min(checked) == 2 and mismatched == EQUATION_ONE_CHECKS
