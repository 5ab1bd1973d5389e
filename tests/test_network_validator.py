"""Unit tests for canonical block validation (VSCC, MVCC, phantom checks)."""

from __future__ import annotations

import pytest

from repro.ledger.block import Block, Transaction, ValidationCode
from repro.ledger.kvstore import GENESIS_VERSION, Version, VersionedKVStore
from repro.ledger.rwset import KeyRead, KeyWrite, RangeRead, ReadWriteSet
from repro.ledger.store import WriteBatch
from repro.network.validator import PHANTOM_WINDOW, BlockValidator


def make_store(keys=("a", "b", "c")):
    store = VersionedKVStore()
    store.populate({key: {"value": key} for key in keys})
    return store


def make_tx(tx_id, reads=(), writes=(), range_reads=(), mismatch=False):
    tx = Transaction(tx_id=tx_id, client_name="c", chaincode_name="t", function="f")
    tx.rwset = ReadWriteSet(reads=list(reads), writes=list(writes), range_reads=list(range_reads))
    tx.endorsement_mismatch = mismatch
    return tx


def test_valid_transaction_updates_state_and_versions():
    store = make_store()
    validator = BlockValidator(store)
    tx = make_tx("t1", reads=[KeyRead("a", GENESIS_VERSION)], writes=[KeyWrite("a", 42)])
    validator.validate_block(Block(number=1, transactions=[tx]))
    assert tx.validation_code is ValidationCode.VALID
    assert store.get_value("a") == 42
    assert store.get_version("a") == Version(1, 0)
    assert validator.last_writer_block("a") == 1


def test_stale_read_fails_mvcc():
    store = make_store()
    validator = BlockValidator(store)
    writer = make_tx("w", reads=[KeyRead("a", GENESIS_VERSION)], writes=[KeyWrite("a", 1)])
    validator.validate_block(Block(number=1, transactions=[writer]))
    stale = make_tx("r", reads=[KeyRead("a", GENESIS_VERSION)], writes=[KeyWrite("b", 2)])
    validator.validate_block(Block(number=2, transactions=[stale]))
    assert stale.validation_code is ValidationCode.MVCC_READ_CONFLICT
    assert stale.conflicting_key == "a"
    assert stale.conflicting_block == 1
    assert store.get_value("b") == {"value": "b"}


def test_intra_block_dependency_fails_second_transaction():
    store = make_store()
    validator = BlockValidator(store)
    first = make_tx("t1", reads=[KeyRead("a", GENESIS_VERSION)], writes=[KeyWrite("a", 1)])
    second = make_tx("t2", reads=[KeyRead("a", GENESIS_VERSION)], writes=[KeyWrite("a", 2)])
    validator.validate_block(Block(number=1, transactions=[first, second]))
    assert first.validation_code is ValidationCode.VALID
    assert second.validation_code is ValidationCode.MVCC_READ_CONFLICT
    assert second.conflicting_block == 1


def test_read_of_deleted_key_fails():
    store = make_store()
    validator = BlockValidator(store)
    deleter = make_tx("d", writes=[KeyWrite("a", None, is_delete=True)])
    validator.validate_block(Block(number=1, transactions=[deleter]))
    reader = make_tx("r", reads=[KeyRead("a", GENESIS_VERSION)])
    validator.validate_block(Block(number=2, transactions=[reader]))
    assert reader.validation_code is ValidationCode.MVCC_READ_CONFLICT
    assert "a" not in store


def test_read_of_newly_inserted_key_fails_when_endorsed_as_missing():
    store = make_store()
    validator = BlockValidator(store)
    inserter = make_tx("i", writes=[KeyWrite("new", 1)])
    validator.validate_block(Block(number=1, transactions=[inserter]))
    reader = make_tx("r", reads=[KeyRead("new", None)])
    validator.validate_block(Block(number=2, transactions=[reader]))
    assert reader.validation_code is ValidationCode.MVCC_READ_CONFLICT


def test_endorsement_mismatch_takes_precedence():
    store = make_store()
    validator = BlockValidator(store)
    tx = make_tx("t", reads=[KeyRead("a", GENESIS_VERSION)], writes=[KeyWrite("a", 1)], mismatch=True)
    validator.validate_block(Block(number=1, transactions=[tx]))
    assert tx.validation_code is ValidationCode.ENDORSEMENT_POLICY_FAILURE
    assert store.get_value("a") == {"value": "a"}


def test_missing_rwset_is_an_endorsement_failure():
    store = make_store()
    validator = BlockValidator(store)
    tx = Transaction(tx_id="x", client_name="c", chaincode_name="t", function="f")
    validator.validate_block(Block(number=1, transactions=[tx]))
    assert tx.validation_code is ValidationCode.ENDORSEMENT_POLICY_FAILURE


def test_phantom_detected_when_key_updated_inside_range():
    store = make_store(keys=("k1", "k2", "k3"))
    validator = BlockValidator(store)
    writer = make_tx("w", writes=[KeyWrite("k2", 99)])
    range_read = RangeRead(
        start_key="k1",
        end_key="k9",
        reads=[KeyRead("k1", GENESIS_VERSION), KeyRead("k2", GENESIS_VERSION), KeyRead("k3", GENESIS_VERSION)],
    )
    reader = make_tx("r", range_reads=[range_read])
    validator.validate_block(Block(number=1, transactions=[writer]))
    validator.validate_block(Block(number=2, transactions=[reader]))
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    assert reader.conflicting_key == "k2"


def test_phantom_detected_when_key_inserted_inside_range():
    store = make_store(keys=("k1", "k3"))
    validator = BlockValidator(store)
    inserter = make_tx("i", writes=[KeyWrite("k2", 1)])
    range_read = RangeRead(
        start_key="k1",
        end_key="k9",
        reads=[KeyRead("k1", GENESIS_VERSION), KeyRead("k3", GENESIS_VERSION)],
    )
    reader = make_tx("r", range_reads=[range_read])
    validator.validate_block(Block(number=1, transactions=[inserter]))
    validator.validate_block(Block(number=2, transactions=[reader]))
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT


def test_rich_queries_never_cause_phantom_failures():
    store = make_store(keys=("k1", "k2"))
    validator = BlockValidator(store)
    writer = make_tx("w", writes=[KeyWrite("k2", 99)])
    rich_read = RangeRead(
        start_key="",
        end_key="",
        reads=[KeyRead("k2", GENESIS_VERSION)],
        phantom_detection=False,
        rich_query=True,
    )
    reader = make_tx("r", range_reads=[rich_read])
    validator.validate_block(Block(number=1, transactions=[writer]))
    validator.validate_block(Block(number=2, transactions=[reader]))
    assert reader.validation_code is ValidationCode.VALID


def test_reordering_aborts_are_left_untouched():
    store = make_store()
    validator = BlockValidator(store)
    tx = make_tx("t", writes=[KeyWrite("a", 1)])
    tx.validation_code = ValidationCode.ABORTED_BY_REORDERING
    validator.validate_block(Block(number=1, transactions=[tx]))
    assert tx.validation_code is ValidationCode.ABORTED_BY_REORDERING
    assert store.get_value("a") == {"value": "a"}


def test_block_and_index_are_recorded_on_transactions():
    store = make_store()
    validator = BlockValidator(store)
    txs = [make_tx(f"t{i}", writes=[KeyWrite(f"x{i}", i)]) for i in range(3)]
    validator.validate_block(Block(number=1, transactions=txs))
    assert [tx.tx_index for tx in txs] == [0, 1, 2]
    assert all(tx.block_number == 1 for tx in txs)


# ------------------------------------------------------- Equation 5's verdict
# Every phantom scenario runs twice on one canonical state, an overlay over a
# frozen genesis: once with the range read unstamped, which re-executes the
# range, and once stamped with the token of the state it was read from, which
# probes only the keys written since.  Both must name the same key and block.
class World:
    """A canonical overlay, its validator, and range reads taken off it."""

    def __init__(self, path):
        genesis = VersionedKVStore()
        genesis.populate({key: {"value": key} for key in ("k1", "k3", "k5", "k7", "k9")})
        genesis.freeze()
        self.store = genesis.overlay()
        self.validator = BlockValidator(self.store)
        self.stamped = path == "written-keys"
        self.block = 0

    def scan(self, start_key="k0", end_key="kz"):
        """The range as an up-to-date endorser reads it now."""
        range_read = RangeRead(
            start_key=start_key,
            end_key=end_key,
            reads=[KeyRead(key, entry.version) for key, entry in self.store.range(start_key, end_key)],
        )
        if self.stamped:
            range_read.state_token = self.store.state_token
        return range_read

    def commit(self, *txs):
        self.block += 1
        self.validator.validate_block(Block(number=self.block, transactions=list(txs)))
        return self.block


@pytest.fixture(params=["rescan", "written-keys"])
def world(request, monkeypatch):
    """A :class:`World`; the stamped one asserts it never re-scanned."""
    world = World(request.param)
    if not world.stamped:
        yield world
        return
    calls = spy_on_paths(monkeypatch)
    yield world
    assert calls["rescan"] == 0 and calls["probe"] > 0, calls


def spy_on_paths(monkeypatch):
    """Count the calls of each phantom path of every validator."""
    calls = {"probe": 0, "rescan": 0}

    def counted(function, name):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)

        return wrapper

    for method, name in (("_probe_written_keys", "probe"), ("_rescan_range", "rescan")):
        monkeypatch.setattr(BlockValidator, method, counted(getattr(BlockValidator, method), name))
    return calls


def test_phantom_when_a_key_inside_the_range_is_deleted(world):
    reader = make_tx("r", range_reads=[world.scan()])
    deleted = world.commit(make_tx("d", writes=[KeyWrite("k5", None, is_delete=True)]))
    world.commit(reader)
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    assert (reader.conflicting_key, reader.conflicting_block) == ("k5", deleted)


def test_phantom_names_the_smallest_changed_key(world):
    reader = make_tx("r", range_reads=[world.scan()])
    world.commit(make_tx("u", writes=[KeyWrite("k7", 1)]))
    inserted = world.commit(make_tx("i", writes=[KeyWrite("k4", 1)]))
    world.commit(make_tx("d", writes=[KeyWrite("k5", None, is_delete=True)]))
    world.commit(reader)
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    assert (reader.conflicting_key, reader.conflicting_block) == ("k4", inserted)


def test_phantom_from_an_earlier_block_names_that_block(world):
    reader = make_tx("r", range_reads=[world.scan()])
    earlier = world.commit(make_tx("u", writes=[KeyWrite("k3", 1)]))
    current = world.commit(reader)
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    assert reader.conflicting_key == "k3"
    assert reader.conflicting_block == earlier != current


def test_phantom_from_the_same_block_names_that_block(world):
    reader = make_tx("r", range_reads=[world.scan()])
    world.commit(make_tx("u", writes=[KeyWrite("k3", 1)]))
    current = world.commit(make_tx("i", writes=[KeyWrite("k2", 1)]), reader)
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    # k2 (this block) is smaller than k3 (the block before).
    assert (reader.conflicting_key, reader.conflicting_block) == ("k2", current)


def test_deleting_a_key_absent_at_the_read_is_no_phantom(world):
    reader = make_tx("r", range_reads=[world.scan()])
    world.commit(make_tx("d1", writes=[KeyWrite("k2", None, is_delete=True)]))
    world.commit(make_tx("d2", writes=[KeyWrite("k4", None, is_delete=True)]), reader)
    assert reader.validation_code is ValidationCode.VALID
    assert reader.conflicting_key is None


def test_writes_outside_the_range_are_no_phantom(world):
    reader = make_tx("r", range_reads=[world.scan("k3", "k7")])
    world.commit(make_tx("w", writes=[KeyWrite("k1", 1), KeyWrite("k7", 1), KeyWrite("k8", 1)]))
    world.commit(reader)
    assert reader.validation_code is ValidationCode.VALID


def test_rewriting_an_equal_value_is_still_a_phantom(world):
    reader = make_tx("r", range_reads=[world.scan()])
    rewritten = world.commit(make_tx("w", writes=[KeyWrite("k9", {"value": "k9"})]))
    world.commit(reader)
    assert world.store.get_value("k9") == {"value": "k9"}
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    assert (reader.conflicting_key, reader.conflicting_block) == ("k9", rewritten)


def test_the_first_conflicting_range_read_decides(world):
    first, second = world.scan("k5", "kz"), world.scan("k0", "k5")
    reader = make_tx("r", range_reads=[first, second])
    world.commit(make_tx("w", writes=[KeyWrite("k1", 1), KeyWrite("k7", 1)]))
    world.commit(reader)
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    assert reader.conflicting_key == "k7"


# --------------------------------------------------- the re-scan as fallback
@pytest.fixture
def paths(monkeypatch):
    return spy_on_paths(monkeypatch)


def test_a_range_read_without_a_token_is_rescanned(paths):
    world = World("written-keys")
    reader = make_tx("r", range_reads=[world.scan()])
    reader.rwset.range_reads[0].state_token = None
    world.commit(make_tx("u", writes=[KeyWrite("k3", 1)]))
    world.commit(reader)
    assert (reader.validation_code, reader.conflicting_key) == (ValidationCode.PHANTOM_READ_CONFLICT, "k3")
    assert paths == {"probe": 0, "rescan": 1}


@pytest.mark.parametrize("lag, path", [(PHANTOM_WINDOW, "probe"), (PHANTOM_WINDOW + 1, "rescan")])
def test_a_token_older_than_the_window_is_rescanned(paths, lag, path):
    world = World("written-keys")
    reader = make_tx("r", range_reads=[world.scan()])
    world.commit(make_tx("u", writes=[KeyWrite("k3", 1)]))
    for _ in range(lag - 1):
        world.commit(make_tx("w", writes=[KeyWrite("x", 1)]))
    assert world.store.state_token - reader.rwset.range_reads[0].state_token == lag
    world.commit(reader)
    assert reader.validation_code is ValidationCode.PHANTOM_READ_CONFLICT
    assert (reader.conflicting_key, reader.conflicting_block) == ("k3", 1)
    assert paths == {"probe": 0, "rescan": 0, path: 1}
    assert len(world.validator._recent) == PHANTOM_WINDOW


def test_a_canonical_store_written_outside_its_validator_is_rescanned(paths):
    world = World("written-keys")
    reader = make_tx("r", range_reads=[world.scan()])
    world.commit(make_tx("w", writes=[KeyWrite("k7", 1)]))
    # A direct put: no batch the validator kept carries it.
    world.store.put("k2", 1, Version(9, 0))
    assert world.store.state_token is None
    world.commit(reader)
    assert (reader.validation_code, reader.conflicting_key) == (ValidationCode.PHANTOM_READ_CONFLICT, "k2")
    assert paths == {"probe": 0, "rescan": 1}


def test_a_batch_applied_around_the_validator_is_rescanned(paths):
    world = World("written-keys")
    reader = make_tx("r", range_reads=[world.scan()])
    world.block += 1
    batch = WriteBatch(world.block)
    batch.put("k2", 1, Version(world.block, 0))
    world.store.apply_batch(batch)
    # Still in sequence, so the store names its state, but the validator did
    # not keep this epoch's batch.
    assert world.store.state_token == world.block
    world.commit(reader)
    assert (reader.validation_code, reader.conflicting_key) == (ValidationCode.PHANTOM_READ_CONFLICT, "k2")
    assert paths == {"probe": 0, "rescan": 1}


def test_a_flat_canonical_store_is_rescanned(paths):
    store = make_store(keys=("k1", "k2"))
    validator = BlockValidator(store)
    validator.validate_block(Block(number=1, transactions=[make_tx("w", writes=[KeyWrite("k2", 9)])]))
    scan = RangeRead("k0", "kz", [KeyRead("k1", GENESIS_VERSION), KeyRead("k2", GENESIS_VERSION)], state_token=0)
    reader = make_tx("r", range_reads=[scan])
    validator.validate_block(Block(number=2, transactions=[reader]))
    assert (reader.validation_code, reader.conflicting_key) == (ValidationCode.PHANTOM_READ_CONFLICT, "k2")
    assert paths == {"probe": 0, "rescan": 1}


def test_range_reads_differing_only_in_their_token_are_equal():
    reads = [KeyRead("k1", GENESIS_VERSION)]
    assert RangeRead("k0", "kz", list(reads), state_token=3) == RangeRead("k0", "kz", list(reads))
    assert ReadWriteSet(range_reads=[RangeRead("k0", "kz", list(reads), state_token=3)]) == ReadWriteSet(
        range_reads=[RangeRead("k0", "kz", list(reads), state_token=4)]
    )
    assert "state_token" not in repr(RangeRead("k0", "kz", state_token=3))
