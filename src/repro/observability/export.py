"""Deterministic exporters: Chrome trace-event JSON, span JSONL, metrics JSON.

Every writer serializes with ``sort_keys=True`` and compact separators and
derives timestamps purely from simulated time, so the same configuration and
seed always produce byte-identical files — asserted by the trace determinism
tests (serial vs parallel runner included).

The Chrome document follows the Trace Event Format (the JSON object form with
a ``traceEvents`` array), which both ``chrome://tracing`` and Perfetto load
directly: complete (``X``) events for spans, metadata (``M``) events naming
processes and threads, counter (``C``) events for the sampled time series and
instant (``i``) events for fault-injection markers.  One *process* per
experiment cell, one *thread* per transaction attempt.
"""

from __future__ import annotations

import json
from typing import Iterable, Iterator, List, Optional, Sequence

from repro.observability.observer import ObservabilityData
from repro.observability.spans import SpanNode

#: Sampled columns that become Chrome counter tracks (one track per column).
_COUNTER_EXCLUDED = frozenset({"time"})


def _us(seconds: float) -> float:
    """Simulated seconds as Trace Event Format microseconds (3 decimals)."""
    return round(seconds * 1e6, 3)


def span_events(span: SpanNode, pid: int, tid: int) -> List[dict]:
    """Flatten one span tree into Chrome ``X`` (complete) events."""
    events = [
        {
            "name": span.name,
            "cat": span.category,
            "ph": "X",
            "ts": _us(span.start),
            "dur": _us(max(span.duration, 0.0)),
            "pid": pid,
            "tid": tid,
            "args": {key: _json_safe(value) for key, value in sorted(span.args.items())},
        }
    ]
    for child in span.children:
        events.extend(span_events(child, pid, tid))
    return events


def _json_safe(value: object) -> object:
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def chrome_trace_events(
    data: ObservabilityData, pid: int = 0, process_name: str = "run"
) -> List[dict]:
    """All Chrome trace events of one run, under process id ``pid``."""
    return list(_run_events(data, pid, process_name))


def _run_events(data: ObservabilityData, pid: int, process_name: str) -> Iterator[dict]:
    yield {
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "tid": 0,
        "args": {"name": process_name},
    }
    for tid, span in enumerate(data.spans, start=1):
        label = str(span.args.get("tx_id", f"attempt-{tid}"))
        yield {
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": tid,
            "args": {"name": label},
        }
        yield from span_events(span, pid, tid)
    for row in data.samples:
        ts = _us(row["time"])
        for column in sorted(row):
            if column in _COUNTER_EXCLUDED:
                continue
            yield {
                "name": column,
                "cat": "metrics",
                "ph": "C",
                "ts": ts,
                "pid": pid,
                "tid": 0,
                "args": {"value": row[column]},
            }
    for marker in data.markers:
        args = {key: _json_safe(value) for key, value in sorted(marker.items()) if key != "time"}
        yield {
            "name": f"fault:{marker['kind']}",
            "cat": "fault",
            "ph": "i",
            "s": "g",
            "ts": _us(marker["time"]),
            "pid": pid,
            "tid": 0,
            "args": args,
        }


def _trace_events(
    runs: Sequence[ObservabilityData], names: Optional[Sequence[str]]
) -> Iterator[dict]:
    """Every event of the document for ``runs``, one process id per run."""
    for pid, data in enumerate(runs):
        name = names[pid] if names is not None else ("run" if len(runs) == 1 else f"run-{pid}")
        yield from _run_events(data, pid, name)


def chrome_trace_document(
    runs: Sequence[ObservabilityData], names: Optional[Sequence[str]] = None
) -> dict:
    """The Trace Event Format document for one or many runs (one pid each)."""
    return {"traceEvents": list(_trace_events(runs, names)), "displayTimeUnit": "ms"}


#: Engine-profile fields measured in wall-clock time.  Exports carry only
#: sim-deterministic data (same config + seed → byte-identical file), so these
#: stay in the in-process summary but never reach the metrics document.
_WALL_CLOCK_KEYS = ("wall_seconds", "events_per_sec")


def metrics_document(data: ObservabilityData) -> dict:
    """The metrics export: registry summary, sampled series, fault markers."""
    summary = dict(data.summary)
    engine = summary.get("engine")
    if isinstance(engine, dict):
        summary["engine"] = {
            key: value for key, value in engine.items() if key not in _WALL_CLOCK_KEYS
        }
    return {
        "summary": summary,
        "series": data.samples,
        "markers": data.markers,
    }


#: The canonical encoder: ``json.dumps(document, sort_keys=True,
#: separators=(",", ":"))``, built once (a streamed trace encodes every event).
_CANONICAL = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def dumps(document: object) -> str:
    """Canonical (byte-deterministic) JSON text for any export document."""
    return _CANONICAL.encode(document)


def write_chrome_trace(
    path: str, runs: Sequence[ObservabilityData], names: Optional[Sequence[str]] = None
) -> None:
    """Write the Chrome trace of ``runs`` to ``path`` (canonical JSON).

    Streams the document event by event: the bytes are those of
    ``dumps(chrome_trace_document(runs, names))`` and a newline, and no
    event list or document string is ever held whole.
    """
    with open(path, "w", encoding="utf-8") as handle:
        # ``dumps`` sorts keys: the unit comes before the event array.
        handle.write('{"displayTimeUnit":"ms","traceEvents":[')
        separator = ""
        for event in _trace_events(runs, names):
            handle.write(separator)
            handle.write(dumps(event))
            separator = ","
        handle.write("]}\n")


def write_metrics(path: str, data: ObservabilityData) -> None:
    """Write the metrics document of one run to ``path`` (canonical JSON)."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(dumps(metrics_document(data)))
        handle.write("\n")


def write_span_jsonl(path: str, spans: Iterable[SpanNode]) -> None:
    """Write one span tree per line (nested JSON) — the raw span dump."""
    with open(path, "w", encoding="utf-8") as handle:
        for span in spans:
            handle.write(dumps(span.as_dict()))
            handle.write("\n")


def load_trace(path: str) -> dict:
    """Load a Chrome trace file written by :func:`write_chrome_trace`.

    Raises :class:`ValueError` when the file is not a Trace Event Format
    document (callers translate this into a CLI error).
    """
    with open(path, "r", encoding="utf-8") as handle:
        document = json.load(handle)
    if not isinstance(document, dict) or not isinstance(document.get("traceEvents"), list):
        raise ValueError(f"{path} is not a Chrome trace-event document")
    return document
