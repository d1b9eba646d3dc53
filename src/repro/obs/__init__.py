"""Observability: frame-level tracing, metrics registry and exporters.

This package is a leaf utility (it imports nothing else from ``repro``)
so any layer may instrument itself. The pipeline's hot path calls
:func:`get_tracer` which returns a shared no-op tracer unless a run has
activated a real one — tracing costs nothing when disabled.
"""

from repro.obs.export import (
    format_metrics_table,
    format_span_summary,
    read_spans_jsonl,
    spans_to_jsonl,
    summarize_spans,
    write_spans_jsonl,
)
from repro.obs.registry import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    get_registry,
)
from repro.obs.trace import (
    NOOP_TRACER,
    SpanRecord,
    Tracer,
    get_tracer,
    use_tracer,
)

__all__ = [
    "SpanRecord",
    "Tracer",
    "NOOP_TRACER",
    "get_tracer",
    "use_tracer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "get_registry",
    "spans_to_jsonl",
    "write_spans_jsonl",
    "read_spans_jsonl",
    "summarize_spans",
    "format_span_summary",
    "format_metrics_table",
]
