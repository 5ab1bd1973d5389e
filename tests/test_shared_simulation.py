"""One simulation per replica state (docs/ARCHITECTURE.md, "Hot path").

Endorsements of one call on one channel whose replicas hold the same state
share one chaincode execution — across endorsers and across transactions,
through the channel's bounded result table.  Three kinds of test pin that:

* **Differential** — a run is byte-identical to the same run with sharing
  switched off.  There is no product switch: "off" is a monkeypatch that makes
  every state token ``None``.  The cells that matter are the ones where the
  bare commit epoch would *not* identify a state (blocks applied out of
  sequence), and a third run keyed on the bare epoch shows the test has teeth.
  Eviction is differential too: caps of one row and one token change nothing.
* **Exact proxies of the gain** — executions per attempt, stub constructions,
  range scans, read/write-set identity before the client's equality loop:
  integers of a fixed cell, never wall-clock.
* **Soundness of the key** — one table per channel, and call keys that are
  equal only for identical calls.
"""

from __future__ import annotations

import importlib.util
import random
import sys
from collections import Counter
from pathlib import Path

import pytest
from test_collector import build_cell, run_cell

from repro.bench.harness import ExperimentConfig, run_repetition
from repro.chaincode import CHAINCODE_REGISTRY, create_chaincode
from repro.chaincode.api import ChaincodeStub
from repro.chaincode.base import Chaincode
from repro.core.fingerprint import record_fingerprint
from repro.checker.config import CheckerConfig
from repro.faults import FaultConfig
from repro.ledger.block import Transaction
from repro.ledger.kvstore import Version, VersionedKVStore
from repro.ledger.store import LaggedStateView, OverlayStateStore, WriteBatch
from repro.lifecycle import RetryConfig
from repro.network import peer as peer_module
from repro.network.client_node import ClientNode
from repro.network.config import NetworkConfig, TimingProfile
from repro.network.peer import RESULT_ROWS, RESULT_TOKENS_PER_ROW, Peer, ResultTable
from repro.observability.config import ObservabilityConfig
from repro.sim.engine import Simulator
from repro.workload.workloads import uniform_workload

sys.path.insert(0, str(Path(__file__).parent / "golden"))

from generate_lifecycle_golden import CHANNEL_COUNTS, VARIANTS, golden_config  # noqa: E402

#: Executions a submitted attempt may cost on an eight-endorser cluster: one,
#: plus the few proposals that arrive across a block commit (8.00 unshared).
EXECUTIONS_PER_ATTEMPT_CEILING = 1.25
#: What :func:`ehr_cell` executes for its 401 attempts (458 while results
#: lived for one transaction only).
EHR_CELL_EXECUTIONS = 440

NO_TOKEN = property(lambda store: None)
BARE_EPOCH_TOKEN = property(lambda store: store.commit_epoch)


def ehr_cell(variant: str = "fabric-1.4", **network) -> ExperimentConfig:
    """~390 EHR transactions on cluster C2: eight endorsements each."""
    network.setdefault("cluster", "C2")
    network.setdefault("database", "leveldb")
    return ExperimentConfig(
        variant=variant,
        workload=uniform_workload("EHR", patients=40),
        network=NetworkConfig(block_size=10, **network),
        arrival_rate=100.0,
        duration=4.0,
        zipf_skew=1.0,
        seed=11,
    )


def everything_computed(config: ExperimentConfig) -> tuple:
    """The run's fingerprint, what the fingerprint leaves out — every
    read/write set, every response's timing, the recorded call latencies —
    and the record itself."""
    record = run_repetition(config, 0).record
    per_transaction = [
        (
            tx.tx_id,
            tx.rwset,
            tx.db_call_latency,
            [
                (e.peer_name, e.received_at, e.completed_at, e.rwset)
                for e in tx.endorsements
            ],
        )
        for tx in record.transactions
    ]
    return record_fingerprint(record), per_transaction, record


def assert_sharing_is_unobservable(config: ExperimentConfig, monkeypatch, counters=None) -> tuple:
    """Runs ``config`` unshared, then shared, and returns the shared run;
    ``counters`` count the shared run only."""
    with monkeypatch.context() as patch:
        patch.setattr(OverlayStateStore, "state_token", NO_TOKEN)
        unshared = everything_computed(config)
    if counters is not None:
        assert counters["executions"] == counters["proposals"] > 0
        counters.clear()
    shared = everything_computed(config)
    assert shared[0] == unshared[0]
    assert shared[1] == unshared[1]
    return shared


@pytest.fixture
def counters(monkeypatch) -> Counter:
    """Counts executions, stub constructions, proposals and endorser block
    commits (``out_of_sequence``: not the next block)."""
    counts: Counter = Counter()

    def counting(owner, name, key, also=None):
        original = getattr(owner, name)

        def wrapper(self, *args, **kwargs):
            counts[key] += 1
            if also is not None:
                also(self, *args)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    def commit(peer, block, *_rest):
        if peer.store is not None and block.number != peer.committed_height + 1:
            counts["out_of_sequence"] += 1

    counting(Chaincode, "execute", "executions")
    counting(ChaincodeStub, "__init__", "stubs")
    counting(Peer, "receive_proposal", "proposals")
    counting(Peer, "_commit_block", "commits", also=commit)
    return counts


# ------------------------------------------------------------- differential
@pytest.mark.parametrize("variant", ["fabric-1.4", "streamchain"])
def test_out_of_sequence_commits_share_nothing_they_should_not(variant, monkeypatch, counters):
    # Half a second of delivery jitter against ~0.1 s between blocks: peers
    # apply block N+1 before block N, so two replicas at one commit epoch can
    # hold different writes.
    config = ehr_cell(variant, timing=TimingProfile(delivery_jitter=0.5))
    shared = assert_sharing_is_unobservable(config, monkeypatch, counters)
    assert counters["out_of_sequence"] > 100
    assert counters["executions"] < counters["proposals"]
    # The in-sequence rule is what makes that hold: keyed on the bare epoch,
    # the same run computes something else.
    with monkeypatch.context() as patch:
        patch.setattr(OverlayStateStore, "state_token", BARE_EPOCH_TOKEN)
        assert everything_computed(config)[0] != shared[0]


@pytest.mark.parametrize("channels", CHANNEL_COUNTS)
@pytest.mark.parametrize("variant", VARIANTS)
def test_golden_cells_do_not_observe_sharing(variant, channels, monkeypatch):
    assert_sharing_is_unobservable(golden_config(variant, channels), monkeypatch)


def test_a_lagged_snapshot_view_does_not_observe_sharing(monkeypatch, counters):
    # FabricSharp endorses from a snapshot one block behind for a random
    # while after each commit: the token names the epoch the view serves.
    assert_sharing_is_unobservable(ehr_cell("fabricsharp"), monkeypatch, counters)
    assert counters["executions"] < counters["proposals"] / 4


@pytest.mark.parametrize("chaincode", ["DRM", "SCM"])
def test_rich_query_chaincodes_on_couchdb_do_not_observe_sharing(chaincode, monkeypatch):
    config = ehr_cell(database="couchdb").with_overrides(
        workload=uniform_workload(chaincode), duration=3.0
    )
    assert_sharing_is_unobservable(config, monkeypatch)


def test_crashes_retries_tracing_and_the_checker_do_not_observe_sharing(monkeypatch, counters):
    config = ehr_cell(
        channels=4,
        cross_channel_rate=0.05,
        faults=FaultConfig(
            peer_crash_rate=0.05,
            endorser_slowdown_rate=0.05,
            orderer_outages=((1.5, 0.5),),
            endorsement_loss_rate=0.01,
        ),
        retry=RetryConfig(policy="jittered", max_retries=3),
        observability=ObservabilityConfig(trace=True, metrics=True),
        checker=CheckerConfig(enabled=True),
    ).with_overrides(arrival_rate=200.0)
    record = assert_sharing_is_unobservable(config, monkeypatch, counters)[2]
    assert record.isolation is not None and record.isolation.verdict.startswith("CERTIFIED")
    assert record.fault_injections["peer_crash"] > 5
    assert record.fault_injections["deferred_block_deliveries"] > 50
    assert record.resubmissions > 500
    assert counters["executions"] < counters["proposals"] / 4


def scm_fpp_cell() -> ExperimentConfig:
    """The perfbench ``scm-fpp`` cell cut short: Fabric++ on range-reading SCM."""
    return ExperimentConfig(
        variant="fabric++",
        workload=uniform_workload("SCM", units_per_lsp=[400, 400, 400, 400, 800]),
        network=NetworkConfig(cluster="C2"),
        arrival_rate=100.0,
        duration=4.0,
        zipf_skew=1.0,
        seed=11,
    )


@pytest.mark.parametrize(
    "config",
    [scm_fpp_cell(), ehr_cell().with_overrides(workload=uniform_workload("DV"))],
    ids=["scm-fabric++", "dv"],
)
def test_results_shared_across_transactions_are_unobservable(config, monkeypatch, counters):
    # SCM scans one of five LSPs; DV's queries take no arguments at all: most
    # attempts ask a question another attempt already asked of the same state.
    record = assert_sharing_is_unobservable(config, monkeypatch, counters)[2]
    assert counters["executions"] < 0.7 * len(record.transactions)


def test_evicting_all_but_the_newest_row_and_token_is_unobservable(monkeypatch, counters):
    config = ehr_cell()
    uncapped = everything_computed(config)
    executions = counters["executions"]
    counters.clear()
    with monkeypatch.context() as patch:
        patch.setattr(peer_module, "RESULT_ROWS", 1)
        patch.setattr(peer_module, "RESULT_TOKENS_PER_ROW", 1)
        capped = everything_computed(config)
    assert capped[:2] == uncapped[:2]
    assert counters["executions"] > executions  # the caps did evict


# ------------------------------------------------------------------ the token
def committed(store, block_number: int, key: str = "a") -> None:
    batch = WriteBatch(block_number)
    batch.put(key, block_number, Version(block_number, 0))
    store.apply_batch(batch)


@pytest.fixture
def frozen_base() -> VersionedKVStore:
    base = VersionedKVStore()
    base.populate({"a": 0, "b": 0})
    base.freeze()
    return base


def test_overlays_over_one_base_agree_on_the_token_after_the_same_batches(frozen_base):
    one, other = frozen_base.overlay(), frozen_base.overlay()
    assert one.state_token == other.state_token == 0
    committed(one, 1)
    assert one.state_token == 1 != other.state_token
    committed(other, 1)
    committed(one, 2)
    committed(other, 2)
    assert one.state_token == other.state_token == 2
    assert dict(one.items()) == dict(other.items())


def test_the_token_is_gone_for_good_after_an_out_of_sequence_batch(frozen_base):
    early, late = frozen_base.overlay(), frozen_base.overlay()
    committed(early, 2, key="a")
    committed(early, 1, key="a")
    committed(late, 1, key="a")
    committed(late, 2, key="a")
    # Same epoch, different databases: the last writer of "a" differs.
    assert early.commit_epoch == late.commit_epoch == 2
    assert early.get_value("a") != late.get_value("a")
    assert late.state_token == 2
    assert early.state_token is None
    committed(early, 3)
    assert early.state_token is None


@pytest.mark.parametrize(
    "write",
    [
        lambda store: store.put("a", 9, Version(0, 0)),
        lambda store: store.delete("a"),
        lambda store: store.populate({"c": 1}),
    ],
    ids=["put", "delete", "populate"],
)
def test_the_token_is_gone_after_a_write_around_apply_batch(frozen_base, write):
    overlay = frozen_base.overlay()
    committed(overlay, 1)
    write(overlay)
    assert overlay.state_token is None
    committed(overlay, 2)
    assert overlay.state_token is None


def test_flat_stores_and_overlays_of_unfrozen_bases_have_no_token():
    base = VersionedKVStore()
    base.populate({"a": 0})
    assert base.state_token is None
    assert base.overlay().state_token is None


def test_a_lagged_view_names_the_epoch_it_serves(frozen_base):
    sim = Simulator()
    overlay = frozen_base.overlay()
    view = LaggedStateView(overlay, sim)
    assert view.state_token == 0
    committed(overlay, 1)
    view.refresh(visible_after=1.0)
    # Stale: the view still serves epoch 0, which an idle replica holds too.
    assert view.get_value("a") == 0 and view.state_token == 0
    sim.post_at(2.0, lambda: None)
    sim.run_until_empty()
    assert view.get_value("a") == 1 and view.state_token == 1
    committed(overlay, 3)
    view.refresh(visible_after=9.0)
    assert view.state_token is None


def test_a_stale_view_over_a_store_with_native_rich_queries_has_no_token(frozen_base):
    # rich_query falls through to the live store: one execution could read
    # the pinned epoch through get/range and the live one through the query.
    overlay = frozen_base.overlay()
    overlay.supports_rich_queries = True
    view = LaggedStateView(overlay, Simulator())
    committed(overlay, 1)
    view.refresh(visible_after=1.0)
    assert view.state_token is None
    view.refresh(visible_after=0.0)
    assert view.state_token == 1


# ------------------------------------------------------- proxies of the gain
def run_network(config: ExperimentConfig):
    network = build_cell(config)
    return network, run_cell(config, network)


def test_an_attempt_costs_about_one_execution_not_one_per_endorser(counters):
    deployment, record = run_network(ehr_cell())
    (network,) = deployment.channels
    attempts = len(record.transactions)
    assert attempts > 300
    # Every endorser still answers every proposal with its own response...
    assert counters["proposals"] == 8 * attempts
    assert sum(peer.endorsements_served for peer in network.peers) == 8 * attempts
    assert all(len(tx.endorsements) == 8 for tx in record.transactions if tx.endorsements)
    # ...around a simulation that ran about once.
    assert counters["executions"] <= EXECUTIONS_PER_ATTEMPT_CEILING * attempts
    assert counters["executions"] == EHR_CELL_EXECUTIONS
    assert counters["stubs"] == counters["executions"]
    assert counters["out_of_sequence"] == 0


def test_same_token_responses_arrive_at_the_client_already_sharing(monkeypatch):
    tokens = {}
    receive_proposal = Peer.receive_proposal
    on_endorsement = ClientNode._on_endorsement
    checked = Counter()

    def receive(peer, tx, *rest):
        tokens[tx.tx_id, peer.name] = peer.endorsement_state().state_token
        receive_proposal(peer, tx, *rest)

    def collect(client, round_, peer, response):
        # Where a response first reaches the client: before the round
        # completes, so before the equality loop has touched anything.
        tx_id = round_.tx.tx_id
        token = tokens[tx_id, response.peer_name]
        for _, earlier in round_.arrivals:
            if token is not None and tokens[tx_id, earlier.peer_name] == token:
                assert response.rwset is earlier.rwset
                checked["shared"] += 1
        on_endorsement(client, round_, peer, response)

    monkeypatch.setattr(Peer, "receive_proposal", receive)
    monkeypatch.setattr(ClientNode, "_on_endorsement", collect)
    _network, record = run_network(ehr_cell())
    assert checked["shared"] > 20 * len(record.transactions)
    assert len(set(tokens.values())) > 30


def test_range_scans_are_executed_once_per_state_of_a_call_not_once_per_attempt(monkeypatch):
    scanned = []
    scan = OverlayStateStore.range

    def counting_scan(store, start_key, end_key):
        scanned.append(id(store))
        return scan(store, start_key, end_key)

    monkeypatch.setattr(OverlayStateStore, "range", counting_scan)
    config = ehr_cell("fabric++", database="couchdb").with_overrides(
        workload=uniform_workload("SCM", units_per_lsp=[400, 400, 400, 400, 800])
    )
    deployment, record = run_network(config)
    (network,) = deployment.channels
    # Replica scans only: the validator re-scans on its own overlay (phantom
    # checks) once per range read it validates, shared or not.
    replicas = {id(peer.store) for peer in network.peers if peer.store is not None}
    assert len(replicas) == 8
    replica_scans = sum(store in replicas for store in scanned)
    range_reads = sum(len(tx.rwset.range_reads) for tx in record.transactions if tx.rwset)
    # 155 replica scans while results lived for one transaction only: about
    # one per range read.  Now one per (call, state) the channel met.
    assert (range_reads, replica_scans) == (150, 36)


def test_every_channel_owns_its_table_and_holds_only_its_own_results():
    deployment, _record = run_network(ehr_cell(channels=8).with_overrides(arrival_rate=800.0))
    channels = deployment.channels
    assert len(channels) == 8 and len({id(channel.results) for channel in channels}) == 8
    held, carried = [], []
    for channel in channels:
        assert all(client.results is channel.results for client in channel.clients)
        held.append({
            id(result[0]) for row in channel.results.rows.values() for result in row.values()
        })
        carried.append({
            id(rwset)
            for client in channel.clients
            for tx in client.submitted
            for rwset in (tx.rwset, *(e.rwset for e in tx.endorsements))
            if rwset is not None
        })
    for index, table in enumerate(held):
        assert table & carried[index]
        assert not any(table & other for other in carried[:index] + carried[index + 1:])


def test_the_table_stays_within_its_caps():
    # Uniform keys over 1,000 patients at 200 tx/s: ~6,000 attempts, enough
    # distinct calls to fill every row the table may keep.
    config = ehr_cell().with_overrides(
        workload=uniform_workload("EHR", patients=1000),
        arrival_rate=200.0,
        duration=30.0,
        zipf_skew=0.0,
    )
    deployment, _record = run_network(config)
    (network,) = deployment.channels
    rows = network.results.rows
    assert len(rows) == RESULT_ROWS
    assert max(map(len, rows.values())) == RESULT_TOKENS_PER_ROW


# --------------------------------------------------------- soundness of the key
@pytest.mark.parametrize("name", sorted(CHAINCODE_REGISTRY))
def test_sampled_arguments_are_ints_and_strings_so_equal_keys_are_identical_calls(name):
    # Keys compare with ==, under which 1 == 1.0 == True: a row is only sound
    # if equal argument tuples are the same call.
    chaincode = create_chaincode(name)
    rng = random.Random(0)
    for function in chaincode.invocable_functions():
        for _ in range(200):
            args = chaincode.sample_args(function, rng)
            assert type(args) is tuple
            assert all(type(arg) in (int, str) for arg in args), (name, function, args)


def test_unhashable_arguments_get_a_row_no_other_transaction_sees():
    table = ResultTable()
    row = table.row("f", ([1],))
    assert row == {} and table.rows == {}
    assert table.row("f", ([1],)) is not row
    assert table.row("f", (1,)) is table.row("f", (1,))


def test_a_direct_caller_without_a_result_table_simply_executes(counters):
    (network,) = build_cell(ehr_cell(cluster="C1")).channels
    endorsers = [peer for peer in network.peers if peer.is_endorser]
    assert len(endorsers) >= 2
    assert len({peer.endorsement_state().state_token for peer in endorsers}) == 1
    tx = Transaction(
        tx_id="tx-direct", client_name="c", chaincode_name="EHR", function="queryEHR",
        args=network.chaincode.sample_args("queryEHR", network.streams.stream("direct")),
    )
    responses = []
    for peer in endorsers:
        peer.receive_proposal(tx, network.chaincode, lambda p, r: responses.append(r))
    network.sim.run_until_empty()
    assert counters["executions"] == len(endorsers) == len(responses)
    assert len({id(response.rwset) for response in responses}) == len(endorsers)
    assert all(response.rwset == responses[0].rwset for response in responses)


# -------------------------------------------------------------- purity lint
def load_lint():
    path = Path(__file__).resolve().parent.parent / "scripts" / "check_hot_path.py"
    spec = importlib.util.spec_from_file_location("check_hot_path", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


IMPURE = '''
class Counting(Chaincode):
    @chaincode_function()
    def bump(self, stub, rng):
        self.calls += 1
        self.seen[stub.get_state("a")] = time.time()
        return random.random()

    def sample_args(self, function, rng, index_chooser=None):
        self.counter += 1
        return (rng.random(),)
'''

IMPURE_FACTORY = '''
def _make_function(self, spec):
    def run(stub):
        self.n = 1
    return run
'''


def test_the_lint_accepts_the_repository_and_rejects_impure_chaincode_functions():
    lint = load_lint()
    assert lint.main() == 0
    errors = lint.check_chaincode_purity(IMPURE, "impure.py")
    assert len(errors) == 5
    assert all("'bump'" in error for error in errors)
    assert sum("assigns to the chaincode object" in error for error in errors) == 2
    for name in ("'rng'", "'time'", "'random'"):
        assert any(name in error for error in errors), name
    assert len(lint.check_chaincode_purity(IMPURE_FACTORY, "factory.py")) == 1
    assert lint.check_chaincode_purity(lint.emitted_chaincode_source(), "emitted") == []
