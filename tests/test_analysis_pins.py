"""The ledger analysis, pinned field by field (``golden/analysis_pins.json``).

Every field of :class:`~repro.core.metrics.ExperimentMetrics` — the aggregate
and each channel's — of three cells, generated at the commit *before*
``compute_metrics`` became one walk over the transactions and ``P2Quantile``
straight-line code (see ``golden/generate_analysis_pins.py``).  A failure names
the cell, the channel and the field that moved.
"""

from __future__ import annotations

import dataclasses
import json
import sys
from pathlib import Path

import pytest

GOLDEN_DIR = Path(__file__).parent / "golden"

sys.path.insert(0, str(GOLDEN_DIR))

from generate_analysis_pins import CELLS, PINS_PATH, analyse, analysis_pins  # noqa: E402

from repro.core.metrics import ExperimentMetrics  # noqa: E402

PINS = json.loads(PINS_PATH.read_text())
FIELDS = [field.name for field in dataclasses.fields(ExperimentMetrics)]


def test_pins_cover_every_cell_and_every_metrics_field():
    assert sorted(name for name in PINS if name != "//") == sorted(CELLS)
    for name in CELLS:
        scopes = [PINS[name]["aggregate"], *PINS[name]["channels"].values()]
        assert all(list(scope) == FIELDS for scope in scopes), name
    assert len(PINS["8-channel/EHR-C1"]["channels"]) == 8


def _assert_same(where: str, actual, expected) -> None:
    if isinstance(expected, dict) and isinstance(actual, dict):
        # Insertion order is part of the analysis (stage order, sorted calls).
        assert list(actual) == list(expected), f"{where}: keys moved"
        for key in expected:
            _assert_same(f"{where}.{key}", actual[key], expected[key])
    else:
        assert actual == expected, f"{where} moved: {actual!r}, pinned {expected!r}"


@pytest.mark.parametrize("name", list(CELLS))
def test_analysis_reproduces_the_pinned_fields(name):
    expected = PINS[name]
    actual = analysis_pins(analyse(CELLS[name]))
    assert list(actual["channels"]) == list(expected["channels"])
    scopes = [("aggregate", actual["aggregate"], expected["aggregate"])] + [
        (f"channel {index}", actual["channels"][index], expected["channels"][index])
        for index in expected["channels"]
    ]
    for scope, actual_fields, expected_fields in scopes:
        for field in FIELDS:
            _assert_same(f"{name} / {scope} / {field}", actual_fields[field], expected_fields[field])
