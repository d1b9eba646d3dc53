"""Trace-layer unit tests: nesting, no-op mode, determinism."""

import pytest

from repro.obs.trace import (
    NOOP_TRACER,
    SpanRecord,
    Tracer,
    get_tracer,
    use_tracer,
)


def _workload(tracer):
    """A deterministic synthetic span tree."""
    with tracer.span("run", policy="balb"):
        for frame in range(3):
            with tracer.span("frame", frame=frame):
                with tracer.span("sim"):
                    pass
                for cam in range(2):
                    with tracer.span("camera", camera=cam) as sp:
                        sp.set_tag("n", cam + frame)


class TestNesting:
    def test_parent_child_links(self):
        tracer = Tracer()
        with tracer.span("a"):
            with tracer.span("b"):
                with tracer.span("c"):
                    pass
            with tracer.span("d"):
                pass
        records = tracer.records
        assert [r.name for r in records] == ["a", "b", "c", "d"]
        a, b, c, d = records
        assert a.parent_id is None and a.depth == 0
        assert b.parent_id == a.span_id and b.depth == 1
        assert c.parent_id == b.span_id and c.depth == 2
        assert d.parent_id == a.span_id and d.depth == 1

    def test_sibling_roots_allowed(self):
        tracer = Tracer()
        with tracer.span("first"):
            pass
        with tracer.span("second"):
            pass
        assert [r.parent_id for r in tracer.records] == [None, None]

    def test_durations_monotonic_and_contained(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        outer, inner = tracer.records
        assert outer.duration_ms >= inner.duration_ms >= 0.0
        assert inner.start_ms >= outer.start_ms

    def test_tags_recorded(self):
        tracer = Tracer()
        with tracer.span("x", camera=3, frame=7) as sp:
            sp.set_tag("late", "yes")
        (record,) = tracer.records
        assert record.tags == {"camera": 3, "frame": 7, "late": "yes"}

    def test_out_of_order_close_raises(self):
        tracer = Tracer()
        a = tracer.span("a")
        b = tracer.span("b")
        a.__enter__()
        b.__enter__()
        with pytest.raises(RuntimeError, match="out of order"):
            a.__exit__(None, None, None)


class TestDisabledMode:
    def test_default_tracer_is_noop(self):
        assert get_tracer() is NOOP_TRACER
        assert not NOOP_TRACER.enabled

    def test_noop_span_is_shared_and_recordless(self):
        s1 = NOOP_TRACER.span("a", camera=1)
        s2 = NOOP_TRACER.span("b")
        assert s1 is s2  # one reusable object: the zero-allocation path
        with s1 as sp:
            sp.set_tag("k", "v")
        assert NOOP_TRACER.records == []
        assert sp.duration_ms == 0.0

    def test_use_tracer_activates_and_restores(self):
        tracer = Tracer()
        with use_tracer(tracer):
            assert get_tracer() is tracer
            with get_tracer().span("inside"):
                pass
        assert get_tracer() is NOOP_TRACER
        assert [r.name for r in tracer.records] == ["inside"]

    def test_use_tracer_restores_on_error(self):
        with pytest.raises(ValueError):
            with use_tracer(Tracer()):
                raise ValueError("boom")
        assert get_tracer() is NOOP_TRACER

    def test_nested_activation(self):
        outer, inner = Tracer(), Tracer()
        with use_tracer(outer):
            with use_tracer(inner):
                with get_tracer().span("deep"):
                    pass
            assert get_tracer() is outer
        assert [r.name for r in inner.records] == ["deep"]
        assert outer.records == []


class TestDeterminism:
    def test_identical_workloads_have_identical_structure(self):
        first, second = Tracer(), Tracer()
        _workload(first)
        _workload(second)
        def shape(t):
            return [
                (r.span_id, r.parent_id, r.name, r.depth, r.tags)
                for r in t.records
            ]
        assert shape(first) == shape(second)
        assert len(first.records) == 1 + 3 * (1 + 1 + 2)


class TestSpanRecord:
    def test_dict_round_trip(self):
        record = SpanRecord(
            span_id=4,
            parent_id=2,
            name="frame",
            depth=1,
            start_ms=1.25,
            duration_ms=0.5,
            tags={"frame": 3, "key": True},
        )
        assert SpanRecord.from_dict(record.to_dict()) == record

    def test_root_round_trip(self):
        record = SpanRecord(
            span_id=0, parent_id=None, name="run", depth=0, start_ms=0.0
        )
        assert SpanRecord.from_dict(record.to_dict()) == record
