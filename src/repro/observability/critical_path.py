"""Critical-path analytics: which stage dominates each transaction's latency.

Works from two sources with one shared core:

- in-process, from the span roots an observed run produced (the ``repro
  run``/``repro sweep`` path) — read off a
  :class:`~repro.observability.spans.SpanTable`'s columns without building
  its trees, or off any iterable of
  :class:`~repro.observability.spans.SpanNode` roots;
- offline, from a Chrome trace file written earlier (the
  ``repro trace summary`` path), by regrouping the flat ``X`` events into
  attempts via their ``(pid, tid)`` coordinates.

For every committed attempt the analyzer finds the *dominant* stage — the
lifecycle stage that consumed the largest share of the attempt's end-to-end
latency — and aggregates per stage: how many transactions it dominated, the
total/mean/p95 time spent in it, and its share of all committed latency.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Tuple

from repro.observability.spans import (
    CATEGORY_STAGE,
    CATEGORY_TX,
    LIFECYCLE_STAGES,
    SpanNode,
    SpanTable,
)
from repro.sim.stats import percentile

#: One attempt reduced to what the analyzer needs: total latency plus the
#: per-stage durations of its direct stage children.
_Attempt = Tuple[float, Dict[str, float]]


def _attempt_from_span(root: SpanNode) -> Optional[_Attempt]:
    if root.args.get("status") != "committed":
        return None
    stages = {
        child.name: child.duration
        for child in root.children
        if child.category == CATEGORY_STAGE
    }
    return (root.duration, stages)


def _attempts_from_events(events: Iterable[dict]) -> List[_Attempt]:
    """Regroup flat Chrome ``X`` events into per-attempt stage durations."""
    roots: Dict[Tuple[int, int], dict] = {}
    stages: Dict[Tuple[int, int], Dict[str, float]] = {}
    for event in events:
        if event.get("ph") != "X":
            continue
        key = (event.get("pid", 0), event.get("tid", 0))
        category = event.get("cat")
        if category == CATEGORY_TX:
            roots[key] = event
        elif category == CATEGORY_STAGE:
            per_attempt = stages.setdefault(key, {})
            name = event.get("name", "")
            per_attempt[name] = per_attempt.get(name, 0.0) + event.get("dur", 0.0) / 1e6
    attempts: List[_Attempt] = []
    for key, root in sorted(roots.items()):
        if root.get("args", {}).get("status") != "committed":
            continue
        attempts.append((root.get("dur", 0.0) / 1e6, stages.get(key, {})))
    return attempts


def _analyze(attempts: List[_Attempt]) -> dict:
    stage_totals: Dict[str, float] = {}
    stage_samples: Dict[str, List[float]] = {}
    dominant_counts: Dict[str, int] = {}
    total_latency = 0.0
    for latency, stages in attempts:
        total_latency += latency
        dominant_stage = None
        dominant_duration = -1.0
        for name, duration in stages.items():
            stage_totals[name] = stage_totals.get(name, 0.0) + duration
            stage_samples.setdefault(name, []).append(duration)
            if duration > dominant_duration:
                dominant_stage, dominant_duration = name, duration
        if dominant_stage is not None:
            dominant_counts[dominant_stage] = dominant_counts.get(dominant_stage, 0) + 1
    ordered = [name for name in LIFECYCLE_STAGES if name in stage_totals]
    ordered += sorted(name for name in stage_totals if name not in LIFECYCLE_STAGES)
    rows = []
    for name in ordered:
        samples = stage_samples[name]
        rows.append(
            {
                "stage": name,
                "dominant_count": dominant_counts.get(name, 0),
                "share_pct": 100.0 * stage_totals[name] / total_latency if total_latency else 0.0,
                "total_s": stage_totals[name],
                "mean_ms": 1e3 * stage_totals[name] / len(samples),
                "p95_ms": 1e3 * percentile(samples, 0.95),
            }
        )
    return {"committed": len(attempts), "stages": rows}


def critical_path_report(spans: Iterable[SpanNode]) -> dict:
    """Per-stage critical-path attribution from in-process span roots."""
    if isinstance(spans, SpanTable):
        attempts = list(spans.committed_stage_durations())
    else:
        attempts = [attempt for root in spans if (attempt := _attempt_from_span(root)) is not None]
    return _analyze(attempts)


def critical_path_from_trace(document: dict) -> dict:
    """Per-stage critical-path attribution from a loaded Chrome trace."""
    return _analyze(_attempts_from_events(document.get("traceEvents", [])))


def format_report(report: dict) -> str:
    """The human-readable summary table ``repro trace summary`` prints."""
    lines = [f"committed transactions: {report['committed']}"]
    if report["stages"]:
        header = f"{'stage':<12} {'dominant':>8} {'share%':>7} {'total_s':>9} {'mean_ms':>8} {'p95_ms':>8}"
        lines.append(header)
        lines.append("-" * len(header))
        for row in report["stages"]:
            lines.append(
                f"{row['stage']:<12} {row['dominant_count']:>8d} {row['share_pct']:>7.1f}"
                f" {row['total_s']:>9.3f} {row['mean_ms']:>8.2f} {row['p95_ms']:>8.2f}"
            )
    return "\n".join(lines)
