"""End-to-end transaction tracing and sim-time metrics for simulated runs.

The package turns the lifecycle event stream and the engine's state into
exportable observability artifacts — span trees per transaction attempt,
sampled time series, fault markers — without perturbing the simulation:
observation draws no RNG, schedules nothing past the submission horizon and,
when disabled, installs nothing at all (runs stay bit-identical).
"""

from repro.observability.config import ObservabilityConfig
from repro.observability.critical_path import (
    critical_path_from_trace,
    critical_path_report,
    format_report,
)
from repro.observability.export import (
    chrome_trace_document,
    dumps,
    load_trace,
    metrics_document,
    write_chrome_trace,
    write_metrics,
    write_span_jsonl,
)
from repro.observability.observer import ObservabilityData, RunObserver
from repro.observability.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    TimeSeriesSampler,
)
from repro.observability.spans import (
    CATEGORY_PEER,
    CATEGORY_STAGE,
    CATEGORY_TX,
    LIFECYCLE_STAGES,
    STAGE_BLOCK_WAIT,
    STAGE_COMMIT,
    STAGE_CONSENSUS,
    STAGE_ENDORSE,
    STAGE_PREPARE,
    STAGE_SUBMIT,
    SpanNode,
    SpanTable,
    SpanTracer,
    build_attempt_span,
    stage_durations,
)

__all__ = [
    "ObservabilityConfig",
    "ObservabilityData",
    "RunObserver",
    "SpanNode",
    "SpanTable",
    "SpanTracer",
    "CATEGORY_TX",
    "CATEGORY_STAGE",
    "CATEGORY_PEER",
    "LIFECYCLE_STAGES",
    "STAGE_ENDORSE",
    "STAGE_SUBMIT",
    "STAGE_PREPARE",
    "STAGE_BLOCK_WAIT",
    "STAGE_CONSENSUS",
    "STAGE_COMMIT",
    "build_attempt_span",
    "stage_durations",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "TimeSeriesSampler",
    "chrome_trace_document",
    "metrics_document",
    "dumps",
    "load_trace",
    "write_chrome_trace",
    "write_metrics",
    "write_span_jsonl",
    "critical_path_report",
    "critical_path_from_trace",
    "format_report",
]
