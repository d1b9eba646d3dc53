"""Read-side serving edge: versioned live-state snapshots with caching.

The pipeline is write-heavy — every frame mutates tracker and scheduler
state — but consumers of its *live state* (dashboards, downstream
analytics, fleet monitors) are read-only and vastly more numerous. The
:class:`ServingEdge` decouples the two sides: the frame loop publishes a
compact :class:`~repro.net.messages.SnapshotMessage` on a configurable
cadence, and subscribers are served the cached canonical encoding of the
latest version. Serving N subscribers therefore costs one encode per
*publication* (the cache miss) plus O(1) bookkeeping per fan-out, not
O(N) encodes — which is what makes a simulated million-subscriber
fan-out cheap enough to regression-test.

Staleness is bounded by construction: a subscriber served at frame ``f``
sees a snapshot no older than ``publish_every - 1`` frames (and exactly
0 frames with the default per-frame cadence). Delivery cost is modeled
through a :class:`~repro.net.link.LinkSpec`, deterministically — the
edge never draws randomness and never reads the wall clock.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.net.link import TESTBED_DOWNLINK, LinkSpec
from repro.net.messages import SnapshotMessage
from repro.obs.registry import MetricsRegistry

if TYPE_CHECKING:  # circular at runtime: runtime.pipeline imports us
    from repro.runtime.metrics import FrameRecord

__all__ = [
    "ServingEdge",
    "ServingStats",
    "SnapshotCache",
]


class SnapshotCache:
    """Single-entry versioned cache of the encoded latest snapshot.

    ``put`` installs a new version and invalidates the cached encoding;
    the first ``serve`` after that pays the encode (a miss), every
    further serve of the same version is a hit returning the same bytes.
    """

    def __init__(self) -> None:
        self._message: Optional[SnapshotMessage] = None
        self._encoded: Optional[bytes] = None
        self.hits = 0
        self.misses = 0

    @property
    def version(self) -> int:
        """Installed snapshot version (-1 before the first ``put``)."""
        return -1 if self._message is None else self._message.version

    @property
    def message(self) -> Optional[SnapshotMessage]:
        return self._message

    def put(self, message: SnapshotMessage) -> None:
        """Install ``message`` as the latest version."""
        if self._message is not None and message.version <= self._message.version:
            raise ValueError(
                f"snapshot versions must increase: got {message.version} "
                f"after {self._message.version}"
            )
        self._message = message
        self._encoded = None

    def serve(self) -> bytes:
        """Serve one subscriber the latest snapshot's encoding."""
        if self._message is None:
            raise LookupError("no snapshot published yet")
        if self._encoded is None:
            self._encoded = self._message.encode()
            self.misses += 1
        else:
            self.hits += 1
        return self._encoded

    def serve_many(self, n: int) -> bytes:
        """Serve ``n`` subscribers; hit/miss accounting is O(1) in ``n``.

        Identical to ``n`` successive :meth:`serve` calls: at most one
        miss (if the installed version was never encoded), all remaining
        requests hit the cached bytes.
        """
        if n < 1:
            raise ValueError("n must be >= 1")
        payload = self.serve()
        self.hits += n - 1
        return payload


@dataclass(frozen=True)
class ServingStats:
    """End-of-run summary of one serving edge."""

    subscribers: int
    snapshots: int
    requests: int
    hits: int
    misses: int
    max_staleness_frames: int
    mean_staleness_frames: float
    modeled_fanout_ms: float
    payload_bytes: int


class ServingEdge:
    """Publishes live-state snapshots and fans them out to subscribers."""

    def __init__(
        self,
        subscribers: int,
        publish_every: int = 1,
        link: LinkSpec = TESTBED_DOWNLINK,
    ) -> None:
        if subscribers < 1:
            raise ValueError("subscribers must be >= 1")
        if publish_every < 1:
            raise ValueError("publish_every must be >= 1")
        self.subscribers = subscribers
        self.publish_every = publish_every
        self.link = link
        self.cache = SnapshotCache()
        self.snapshots_published = 0
        self.requests = 0
        self.max_staleness_frames = 0
        self.modeled_fanout_ms = 0.0
        self._staleness_sum = 0
        self._frames_served = 0
        self._last_published_frame: Optional[int] = None
        self._last_payload_bytes = 0

    @property
    def staleness_bound_frames(self) -> int:
        """Largest staleness any subscriber can ever observe."""
        return self.publish_every - 1

    # ------------------------------------------------------------------
    def on_frame(self, record: FrameRecord) -> None:
        """Frame-loop hook: publish on cadence, then serve the fleet."""
        if record.frame_index % self.publish_every == 0:
            self.publish(record)
        self.serve_fleet(record.frame_index)

    def publish(self, record: FrameRecord) -> None:
        """Install a fresh snapshot of ``record`` into the cache."""
        self.cache.put(
            SnapshotMessage(
                version=self.snapshots_published,
                frame_index=record.frame_index,
                is_key_frame=record.is_key_frame,
                n_visible=len(record.visible_gt),
                n_detected=len(record.detected_gt),
            )
        )
        self.snapshots_published += 1
        self._last_published_frame = record.frame_index

    def serve_fleet(self, now_frame: int) -> None:
        """Serve every subscriber the latest snapshot at ``now_frame``."""
        if self._last_published_frame is None:
            raise LookupError("no snapshot published yet")
        payload = self.cache.serve_many(self.subscribers)
        self._last_payload_bytes = len(payload)
        self.requests += self.subscribers
        staleness = now_frame - self._last_published_frame
        if staleness > self.staleness_bound_frames:
            raise AssertionError(
                f"staleness bound violated: snapshot is {staleness} frames "
                f"old, bound is {self.staleness_bound_frames}"
            )
        self.max_staleness_frames = max(self.max_staleness_frames, staleness)
        self._staleness_sum += staleness
        self._frames_served += 1
        # Modeled delivery cost, deterministic: propagation + serialization
        # across the downlink for every subscriber (no jitter draws).
        per_message_ms = (
            self.link.propagation_ms
            + len(payload) * 8.0 / (self.link.bandwidth_mbps * 1e6) * 1e3
        )
        self.modeled_fanout_ms += per_message_ms * self.subscribers

    # ------------------------------------------------------------------
    def stats(self) -> ServingStats:
        """Summarize the edge's activity so far."""
        return ServingStats(
            subscribers=self.subscribers,
            snapshots=self.snapshots_published,
            requests=self.requests,
            hits=self.cache.hits,
            misses=self.cache.misses,
            max_staleness_frames=self.max_staleness_frames,
            mean_staleness_frames=(
                self._staleness_sum / self._frames_served
                if self._frames_served
                else 0.0
            ),
            modeled_fanout_ms=self.modeled_fanout_ms,
            payload_bytes=self._last_payload_bytes,
        )

    def export_metrics(self, registry: MetricsRegistry) -> None:
        """Publish the edge's counters into a run's metrics registry."""
        registry.counter("serving_snapshots_total").inc(
            self.snapshots_published
        )
        registry.counter("serving_requests_total").inc(self.requests)
        registry.counter("serving_cache_hits_total").inc(self.cache.hits)
        registry.counter("serving_cache_misses_total").inc(self.cache.misses)
        registry.gauge("serving_staleness_frames").set(
            self.max_staleness_frames
        )
