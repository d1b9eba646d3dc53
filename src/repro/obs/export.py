"""Trace/metrics exporters: JSON-lines round trip and text summaries.

The JSONL format is one span per line in start order; reading it back
reconstructs the exact :class:`~repro.obs.trace.SpanRecord` list, so a
trace file is a lossless serialization of a run's span forest.
"""

from __future__ import annotations

import json
from typing import IO, Any, Dict, Iterable, List, Sequence, Union

from repro.obs.registry import MetricsRegistry
from repro.obs.trace import SpanRecord

def spans_to_jsonl(spans: Sequence[SpanRecord]) -> str:
    """Serialize spans as one JSON object per line."""
    return "\n".join(json.dumps(s.to_dict(), sort_keys=True) for s in spans)


def write_spans_jsonl(
    spans: Sequence[SpanRecord], destination: Union[str, IO[str]]
) -> None:
    """Write spans to a path or open text file."""
    text = spans_to_jsonl(spans)
    payload = text + ("\n" if text else "")
    if isinstance(destination, str):
        with open(destination, "w") as f:
            f.write(payload)
    else:
        destination.write(payload)


def read_spans_jsonl(source: Union[str, IO[str]]) -> List[SpanRecord]:
    """Parse a JSONL trace back into span records.

    A line that is not a JSON span record raises ``ValueError`` naming
    the file and the line.
    """
    if isinstance(source, str):
        name = source
        with open(source) as f:
            text = f.read()
    else:
        name = getattr(source, "name", "<stream>")
        text = source.read()
    spans: List[SpanRecord] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        if not line.strip():
            continue
        try:
            spans.append(SpanRecord.from_dict(json.loads(line)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{name}, line {lineno}: not JSON: {exc.msg}") from exc
        except KeyError as exc:
            raise ValueError(
                f"{name}, line {lineno}: span record has no {exc} field"
            ) from exc
        except (ValueError, TypeError, AttributeError) as exc:
            raise ValueError(
                f"{name}, line {lineno}: not a span record: {exc}"
            ) from exc
    return spans


def summarize_spans(
    spans: Sequence[SpanRecord],
) -> List[Dict[str, Any]]:
    """Aggregate spans by name: count, total/mean/max duration (ms).

    Rows come back sorted by total time descending (name as tiebreak), the
    natural "where did the time go" ordering.
    """
    acc: Dict[str, List[float]] = {}
    for span in spans:
        acc.setdefault(span.name, []).append(span.duration_ms)
    rows = [
        {
            "name": name,
            "count": len(values),
            "total_ms": sum(values),
            "mean_ms": sum(values) / len(values),
            "max_ms": max(values),
        }
        for name, values in acc.items()
    ]
    rows.sort(key=lambda r: (-r["total_ms"], r["name"]))
    return rows


def format_span_summary(spans: Sequence[SpanRecord], title: str = "") -> str:
    """Render :func:`summarize_spans` as an aligned text table."""
    rows = [
        (
            r["name"],
            r["count"],
            f"{r['total_ms']:.2f}",
            f"{r['mean_ms']:.3f}",
            f"{r['max_ms']:.3f}",
        )
        for r in summarize_spans(spans)
    ]
    return _table(
        ["span", "count", "total ms", "mean ms", "max ms"], rows, title
    )


def format_metrics_table(
    registry_or_export: Union[MetricsRegistry, Iterable[Dict[str, Any]]],
    title: str = "",
) -> str:
    """Render a registry export as an aligned text table."""
    if isinstance(registry_or_export, MetricsRegistry):
        entries = registry_or_export.export()
    else:
        entries = list(registry_or_export)
    rows = []
    for e in entries:
        labels = ",".join(f"{k}={v}" for k, v in sorted(e["labels"].items()))
        if e["kind"] == "histogram":
            value = (
                f"count={e['count']} mean={e['mean']:.3f} "
                f"p95={e['p95']:.3f} max={e['max']:.3f}"
            )
        else:
            value = f"{e['value']:g}"
        rows.append((e["kind"], e["name"], labels, value))
    return _table(["kind", "name", "labels", "value"], rows, title)


def _table(
    headers: Sequence[str], rows: Sequence[Sequence[Any]], title: str = ""
) -> str:
    """Minimal aligned table (obs is a leaf package; no experiments dep)."""
    str_rows = [[str(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = [title] if title else []
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    lines.extend(
        "  ".join(c.ljust(w) for c, w in zip(row, widths)) for row in str_rows
    )
    return "\n".join(lines)
