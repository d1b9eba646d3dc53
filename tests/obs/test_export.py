"""Exporter tests: JSONL round trip, tree signatures, text summaries."""

import io
import re

import pytest

from repro.obs.export import (
    format_metrics_table,
    format_span_summary,
    read_spans_jsonl,
    spans_to_jsonl,
    summarize_spans,
    write_spans_jsonl,
)
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import Tracer
from tests.obs.span_tree import span_tree_signature


def _trace():
    tracer = Tracer()
    with tracer.span("run", policy="balb"):
        for frame in range(2):
            with tracer.span("frame", frame=frame):
                with tracer.span("camera", camera=0):
                    pass
    return tracer.records


class TestJsonlRoundTrip:
    def test_file_round_trip(self, tmp_path):
        spans = _trace()
        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(spans, str(path))
        assert read_spans_jsonl(str(path)) == spans

    def test_stream_round_trip(self):
        spans = _trace()
        buf = io.StringIO()
        write_spans_jsonl(spans, buf)
        assert read_spans_jsonl(io.StringIO(buf.getvalue())) == spans

    def test_one_line_per_span(self):
        spans = _trace()
        text = spans_to_jsonl(spans)
        assert len(text.splitlines()) == len(spans)

    def test_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        write_spans_jsonl([], str(path))
        assert read_spans_jsonl(str(path)) == []

    @pytest.mark.parametrize(
        "bad,reason",
        [
            ("{oops", "not JSON"),
            ('{"name": "x"}', "span record has no 'span_id' field"),
            ("[1, 2]", "not a span record"),
        ],
    )
    def test_bad_line_names_file_and_line(self, tmp_path, bad, reason):
        path = tmp_path / "trace.jsonl"
        good = spans_to_jsonl(_trace()[:1])
        path.write_text(good + "\n\n" + bad + "\n")
        with pytest.raises(ValueError, match=f"^{re.escape(str(path))}, line 3: {reason}"):
            read_spans_jsonl(str(path))

    def test_parsed_summary_matches_registry_state(self, tmp_path):
        """JSONL -> parsed summary equals the aggregate of the live trace.

        A histogram fed the live durations must agree with the summary of
        the spans read back from disk — the exporter loses nothing.
        """
        spans = _trace()
        registry = MetricsRegistry()
        for s in spans:
            registry.histogram("span_ms", span=s.name).observe(s.duration_ms)

        path = tmp_path / "trace.jsonl"
        write_spans_jsonl(spans, str(path))
        summary = {r["name"]: r for r in summarize_spans(read_spans_jsonl(str(path)))}

        for entry in registry.export():
            name = entry["labels"]["span"]
            assert summary[name]["count"] == entry["count"]
            assert abs(summary[name]["total_ms"] - entry["total"]) < 1e-9
            assert abs(summary[name]["max_ms"] - entry["max"]) < 1e-9


class TestTreeSignature:
    def test_structure_only(self):
        spans = _trace()
        sig = span_tree_signature(spans)
        assert sig == (
            (
                "run",
                (
                    ("frame", (("camera", ()),)),
                    ("frame", (("camera", ()),)),
                ),
            ),
        )

    def test_identical_traces_identical_signatures(self):
        assert span_tree_signature(_trace()) == span_tree_signature(_trace())

    def test_orphan_spans_become_roots(self):
        spans = _trace()[1:]  # drop the root; frames become roots
        sig = span_tree_signature(spans)
        assert [s[0] for s in sig] == ["frame", "frame"]


class TestSummaries:
    def test_summarize_counts(self):
        rows = {r["name"]: r for r in summarize_spans(_trace())}
        assert rows["run"]["count"] == 1
        assert rows["frame"]["count"] == 2
        assert rows["camera"]["count"] == 2

    def test_format_span_summary_is_table(self):
        text = format_span_summary(_trace(), title="spans")
        assert text.startswith("spans\n")
        assert "total ms" in text and "frame" in text

    def test_format_metrics_table(self):
        reg = MetricsRegistry()
        reg.counter("frames").inc(3)
        reg.histogram("ms").observe(1.0)
        text = format_metrics_table(reg, title="metrics")
        assert "frames" in text and "count=1" in text and "3" in text
