"""The golden corpus (``golden/corpus.json``), its typed diff and its gate.

The lifecycle cells — one small configuration per variant family, at one and
four channels — must reproduce their ten scalar metrics, failure counts and
cell hash bit for bit, and the analysis cells every ``ExperimentMetrics``
field, aggregate and per channel: the event bus, the stage seams, the shared
build path and the analysis must not perturb a single RNG draw, simulator
event or derived metric.  Exact comparison is deliberate: "close" is not
deterministic, identical is.  A failure names the cell, the part, the first
diverging path and both values; ``scripts/regen_goldens.py`` rewrites the
corpus after an intended change.
"""

from __future__ import annotations

import copy
import dataclasses

import corpus
import pytest
from corpus import Change, ChangeType, assert_pinned, recursive_diff

from repro.core.metrics import ExperimentMetrics
from repro.ledger.block import ValidationCode

LIFECYCLE_CELLS = [
    f"lifecycle/{variant}/channels={channels}"
    for variant in corpus.VARIANTS
    for channels in corpus.CHANNEL_COUNTS
]
FIELDS = [field.name for field in dataclasses.fields(ExperimentMetrics)]


def test_the_corpus_holds_one_entry_per_producer_in_producer_order():
    assert list(corpus.load()) == [corpus.key(cell, part) for cell, part in corpus.PRODUCERS]


# ------------------------------------------------------------------ the diff
UPDATED, ADDED, REMOVED = ChangeType.UPDATED, ChangeType.ADDED, ChangeType.REMOVED
DIFFS = {
    "no-change": ({"a": 1, "b": ["x", {"c": "0.5"}]}, {"a": 1, "b": ["x", {"c": "0.5"}]}, {}),
    "scalar-updated": ({"a": 1}, {"a": 2}, {("a",): Change(UPDATED, 1, 2)}),
    # A float pinned by repr that comes back as an int has moved.
    "type-updated": ({"a": "1.0"}, {"a": 1}, {("a",): Change(UPDATED, "1.0", 1)}),
    "key-added": ({}, {"x": 42}, {("x",): Change(ADDED, new=42)}),
    "key-removed": ({"x": 42}, {}, {("x",): Change(REMOVED, old=42)}),
    "nested-path": (
        {"channels": {"3": {"blocks": 7, "quantiles": ["0.1", "0.2"]}}},
        {"channels": {"3": {"blocks": 7, "quantiles": ["0.1", "0.25"]}}},
        {("channels", "3", "quantiles", 1): Change(UPDATED, "0.2", "0.25")},
    ),
    "list-shorter": ([1, 2, 3], [1, 2], {(2,): Change(REMOVED, old=3)}),
    "list-longer": (
        {"a": [1]},
        {"a": [1, 2, 3]},
        {("a", 1): Change(ADDED, new=2), ("a", 2): Change(ADDED, new=3)},
    ),
    "key-order": (
        {"a": 1, "b": 2},
        {"b": 2, "a": 1},
        {(): Change(UPDATED, ["a", "b"], ["b", "a"])},
    ),
}


@pytest.mark.parametrize("case", list(DIFFS))
def test_the_diff_keys_each_change_by_its_path(case):
    old, new, changes = DIFFS[case]
    assert recursive_diff(old, new) == changes


# ------------------------------------------------------------------ the gate
@pytest.fixture(scope="module")
def ehr_c1_record():
    return corpus.recorded_run("pins/fabric-1.4/EHR/C1")[1]


def test_a_flipped_validation_code_names_the_cell_the_part_and_the_transaction(ehr_c1_record):
    committed = [tx for tx in ehr_c1_record.transactions if tx.is_committed]
    tx = committed[len(committed) // 2]
    tx.validation_code = ValidationCode.MVCC_READ_CONFLICT
    try:
        entry = corpus.fingerprint_entry(ehr_c1_record)
    finally:
        tx.validation_code = ValidationCode.VALID
    with pytest.raises(AssertionError) as failure:
        assert_pinned("pins/fabric-1.4/EHR/C1", "fingerprint", entry)
    message = str(failure.value)
    first_change = message.splitlines()[1]
    assert message.startswith("pins/fabric-1.4/EHR/C1 / fingerprint: ")
    assert first_change.startswith(f"  transactions / {(tx.submitted_at, tx.tx_id)!r}: pinned ")
    # The unflipped run is the pinned one.
    assert_pinned("pins/fabric-1.4/EHR/C1", "fingerprint", corpus.fingerprint_entry(ehr_c1_record))


@pytest.mark.parametrize(
    "cell,part,path",
    [
        ("pins/fabric-1.4/EHR/C1", "fingerprint", ("blocks_cut",)),
        ("8-channel/EHR-C1", "analysis", ("channels", "3", "committed_transactions")),
    ],
)
def test_a_moved_scalar_names_the_cell_the_path_and_both_values(cell, part, path):
    entry = copy.deepcopy(corpus.load()[corpus.key(cell, part)])
    scope = entry
    for step in path[:-1]:
        scope = scope[step]
    pinned = scope[path[-1]]
    scope[path[-1]] = pinned + 1
    with pytest.raises(AssertionError) as failure:
        assert_pinned(cell, part, entry)
    assert str(failure.value) == (
        f"{cell} / {part}: 1 change(s) against the corpus\n"
        f"  {' / '.join(path)}: pinned {pinned!r}, produced {pinned + 1!r}"
    )


# ------------------------------------------------------------- the lifecycle
@pytest.mark.parametrize("cell", LIFECYCLE_CELLS)
def test_lifecycle_cell_reproduces_its_metrics_bit_for_bit(cell):
    assert_pinned(cell, "metrics", corpus.PRODUCERS[(cell, "metrics")]())


def test_cell_hash_unchanged_by_default_retry_config():
    # The retry field was added to NetworkConfig after the lifecycle cells were
    # first pinned; a config that leaves retries at the default must keep its
    # pre-retry cell hash (and therefore its per-repetition seeds and any
    # cached results).
    pinned = corpus.load()["lifecycle/fabric-1.4/channels=1/metrics"]["cell_hash"]
    assert corpus.golden_config("fabric-1.4", 1).cell_hash() == pinned


# -------------------------------------------------------------- the analysis
def test_analysis_entries_hold_every_metrics_field_of_every_scope():
    for cell in corpus.ANALYSIS_CELLS:
        entry = corpus.load()[corpus.key(cell, "analysis")]
        for scope in [entry["aggregate"], *entry["channels"].values()]:
            assert list(scope) == FIELDS, cell
    assert len(corpus.load()["8-channel/EHR-C1/analysis"]["channels"]) == 8


@pytest.mark.parametrize("cell", list(corpus.ANALYSIS_CELLS))
def test_analysis_reproduces_every_pinned_field(cell):
    assert_pinned(cell, "analysis", corpus.PRODUCERS[(cell, "analysis")]())
