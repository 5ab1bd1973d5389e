"""Pinned export bytes, split so that a moved pin says *what* moved.

A trace or metrics export mixes two subjects: the simulated system (spans,
lifecycle counters, latency histograms, queue depths, fault markers) and the
simulator observing itself (how many events it dispatched, how deep its queue
was).  A change to the engine's event budget — one wake-up per endorsement
round instead of one per response, say — legitimately moves the second and
must not move the first.  So a pin (``tests/golden/export_pins.json``, written
by ``tests/golden/generate_export_pins.py``) records three things per export:

* ``sha256`` — the whole file, as before;
* ``simulated`` — one digest over every part that is *not* engine
  self-observation: the line that must not change in the diff of a PR that
  only changes how the engine schedules;
* ``parts`` — one short digest per named part (``spans``, ``markers``,
  ``series/<column>``, ``summary/<key>``), so that a failure names the part
  that differs instead of printing two unequal hashes.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Dict

from repro.observability.export import dumps, metrics_document, write_chrome_trace
from repro.observability.observer import ObservabilityData

PINS_PATH = Path(__file__).parent / "golden" / "export_pins.json"

#: The sampled series ``RunObserver`` reads from the simulator's own counters,
#: and the summary key that holds the engine profiler's report.
ENGINE_PARTS = ("series/engine_events_per_s", "series/pending_events")
ENGINE_SUMMARY_KEY = "engine"


def is_engine_part(name: str) -> bool:
    """True for the parts in which the simulator observes itself."""
    return name == f"summary/{ENGINE_SUMMARY_KEY}" or name in ENGINE_PARTS


def exported_bytes(data: ObservabilityData, directory: Path) -> Dict[str, bytes]:
    """The run's ``trace`` and ``metrics`` exports, as the writers produce them.

    Nothing is stripped: a wall-clock key that reaches an export fails its pin.
    """
    trace_path = Path(directory) / "trace.json"
    write_chrome_trace(trace_path, [data])
    metrics = dumps(metrics_document(data))
    return {"trace": trace_path.read_bytes(), "metrics": metrics.encode("utf-8")}


def export_parts(document: dict) -> Dict[str, str]:
    """``part name -> short digest`` of a Chrome-trace or a metrics document."""
    parts: Dict[str, object] = {}
    if "traceEvents" in document:
        parts["header"] = {key: value for key, value in document.items() if key != "traceEvents"}
        for event in document["traceEvents"]:
            if event["ph"] == "C":
                name = f"series/{event['name']}"
            elif event["ph"] == "i":
                name = "markers"
            else:
                name = "spans"
            parts.setdefault(name, []).append(event)
    else:
        for key, value in document["summary"].items():
            parts[f"summary/{key}"] = value
        parts["markers"] = document["markers"]
        for row in document["series"]:
            for column, value in row.items():
                if column != "time":
                    parts.setdefault(f"series/{column}", []).append([row["time"], value])
    return {
        name: hashlib.sha256(dumps(part).encode("utf-8")).hexdigest()[:16]
        for name, part in sorted(parts.items())
    }


def pin_of(exported: bytes) -> dict:
    """The pin of one exported file (see the module docstring)."""
    parts = export_parts(json.loads(exported))
    simulated = {name: digest for name, digest in parts.items() if not is_engine_part(name)}
    return {
        "sha256": hashlib.sha256(exported).hexdigest(),
        "simulated": hashlib.sha256(dumps(simulated).encode("utf-8")).hexdigest(),
        "parts": parts,
    }


def assert_export_pinned(name: str, exported: bytes) -> None:
    """Assert ``exported`` is the export pinned as ``name``, naming what differs."""
    pinned = json.loads(PINS_PATH.read_text())[name]
    actual = pin_of(exported)
    moved = sorted(
        part
        for part in actual["parts"].keys() | pinned["parts"].keys()
        if actual["parts"].get(part) != pinned["parts"].get(part)
    )
    simulated = [part for part in moved if not is_engine_part(part)]
    assert not simulated and actual["simulated"] == pinned["simulated"], (
        f"{name}: the simulated system's export moved in {simulated or 'part order'} "
        f"(engine self-observation moved in {[p for p in moved if is_engine_part(p)]})"
    )
    assert not moved, (
        f"{name}: the simulated system's export is unchanged; "
        f"engine self-observation moved in {moved}"
    )
    assert actual["sha256"] == pinned["sha256"], (
        f"{name}: every part matches its pin but the file's bytes differ "
        "(part order or formatting)"
    )
