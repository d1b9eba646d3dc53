"""The read-side serving edge: cache versioning and the 1e6 fan-out wall.

The load-regression satellite of ISSUE 6: a simulated million-subscriber
fan-out must be absorbed by the snapshot cache (≥99% hit rate) with
bounded staleness, and the whole edge must stay deterministic (no wall
clock, no randomness — modeled delivery cost only).
"""

import pytest

from repro.net.link import LinkSpec
from repro.net.messages import SnapshotMessage
from repro.obs.registry import MetricsRegistry
from repro.runtime.metrics import FrameRecord
from repro.serving import ServingEdge, SnapshotCache


def snapshot(version, frame=None):
    return SnapshotMessage(
        version=version,
        frame_index=version if frame is None else frame,
        is_key_frame=version % 5 == 0,
        n_visible=10,
        n_detected=9,
    )


def record(frame):
    return FrameRecord(
        frame_index=frame,
        is_key_frame=frame % 5 == 0,
        inference_ms={0: 10.0},
        visible_gt=frozenset({1, 2, 3}),
        detected_gt=frozenset({1, 2}),
    )


class TestSnapshotCache:
    def test_serve_before_any_put_is_an_error(self):
        with pytest.raises(LookupError, match="no snapshot"):
            SnapshotCache().serve()

    def test_versions_must_strictly_increase(self):
        cache = SnapshotCache()
        cache.put(snapshot(3))
        with pytest.raises(ValueError, match="must increase"):
            cache.put(snapshot(3))
        with pytest.raises(ValueError, match="must increase"):
            cache.put(snapshot(2))
        assert cache.version == 3

    def test_first_serve_misses_then_every_serve_hits(self):
        cache = SnapshotCache()
        cache.put(snapshot(0))
        payloads = [cache.serve() for _ in range(5)]
        assert cache.misses == 1 and cache.hits == 4
        assert all(p == payloads[0] for p in payloads)

    def test_put_invalidates_the_cached_encoding(self):
        cache = SnapshotCache()
        cache.put(snapshot(0))
        first = cache.serve()
        cache.put(snapshot(1))
        second = cache.serve()
        assert second != first
        assert cache.misses == 2

    def test_serve_many_equals_n_serves(self):
        bulk, loop = SnapshotCache(), SnapshotCache()
        bulk.put(snapshot(0))
        loop.put(snapshot(0))
        payload = bulk.serve_many(1000)
        for _ in range(1000):
            assert loop.serve() == payload
        assert (bulk.hits, bulk.misses) == (loop.hits, loop.misses)

    def test_serve_many_requires_positive_n(self):
        cache = SnapshotCache()
        cache.put(snapshot(0))
        with pytest.raises(ValueError, match=">= 1"):
            cache.serve_many(0)


class TestServingEdgeValidation:
    def test_subscribers_must_be_positive(self):
        with pytest.raises(ValueError, match="subscribers"):
            ServingEdge(subscribers=0)

    def test_publish_every_must_be_positive(self):
        with pytest.raises(ValueError, match="publish_every"):
            ServingEdge(subscribers=1, publish_every=0)

    def test_serving_before_publishing_is_an_error(self):
        with pytest.raises(LookupError, match="no snapshot"):
            ServingEdge(subscribers=1).serve_fleet(0)


class TestMillionSubscriberFanOut:
    """The load-regression wall: 1e6 subscribers, 50 frames."""

    FRAMES = 50
    SUBSCRIBERS = 1_000_000

    @pytest.fixture(scope="class")
    def loaded_edge(self):
        edge = ServingEdge(subscribers=self.SUBSCRIBERS, publish_every=3)
        for frame in range(self.FRAMES):
            edge.on_frame(record(frame))
        return edge

    def test_cache_absorbs_the_fan_out(self, loaded_edge):
        stats = loaded_edge.stats()
        assert stats.requests == self.FRAMES * self.SUBSCRIBERS
        assert stats.hits / stats.requests >= 0.99
        # Exactly one miss per publication, never one per subscriber.
        assert stats.misses == stats.snapshots

    def test_staleness_is_bounded_by_the_publish_cadence(self, loaded_edge):
        stats = loaded_edge.stats()
        assert stats.max_staleness_frames <= loaded_edge.staleness_bound_frames
        assert loaded_edge.staleness_bound_frames == 2
        assert stats.max_staleness_frames == 2  # the bound is attained
        assert 0.0 < stats.mean_staleness_frames <= 2.0

    def test_fan_out_cost_is_modeled_not_measured(self, loaded_edge):
        """Rerunning the identical load yields the identical cost."""
        rerun = ServingEdge(subscribers=self.SUBSCRIBERS, publish_every=3)
        for frame in range(self.FRAMES):
            rerun.on_frame(record(frame))
        assert rerun.stats() == loaded_edge.stats()
        assert loaded_edge.stats().modeled_fanout_ms > 0.0

    def test_exported_metrics_match_stats(self, loaded_edge):
        registry = MetricsRegistry()
        loaded_edge.export_metrics(registry)
        stats = loaded_edge.stats()
        by_name = {
            (m["kind"], m["name"]): m["value"] for m in registry.export()
        }
        assert by_name[("counter", "serving_requests_total")] == stats.requests
        assert by_name[("counter", "serving_cache_hits_total")] == stats.hits
        assert by_name[("counter", "serving_snapshots_total")] == stats.snapshots
        assert (
            by_name[("gauge", "serving_staleness_frames")]
            == stats.max_staleness_frames
        )


class TestPerFrameCadence:
    def test_default_cadence_has_zero_staleness(self):
        edge = ServingEdge(subscribers=10)
        for frame in range(20):
            edge.on_frame(record(frame))
        stats = edge.stats()
        assert stats.max_staleness_frames == 0
        assert stats.mean_staleness_frames == 0.0
        assert stats.snapshots == 20

    def test_slower_link_costs_more(self):
        fast = ServingEdge(subscribers=100, link=LinkSpec(bandwidth_mbps=100.0))
        slow = ServingEdge(subscribers=100, link=LinkSpec(bandwidth_mbps=1.0))
        for frame in range(5):
            fast.on_frame(record(frame))
            slow.on_frame(record(frame))
        assert slow.stats().modeled_fanout_ms > fast.stats().modeled_fanout_ms
