"""The ingest edge: per-camera bounded frame queues with backpressure.

Every frame of every run passes through the :class:`IngestEdge` before
the scheduler sees it: one :class:`BoundedFrameQueue` per camera, plus
the frames held back by open ``ingest_burst`` windows. Without bursts
each queue takes one frame in and serves it straight back out, so the
edge is a transparent pass-through. When a burst releases its held
frames in a bunch, the queue overflows and a pluggable
:class:`IngestPolicy` decides what gives:

* ``drop-oldest`` — evict the oldest queued frame, strictly in arrival
  order (the classic ring-buffer camera feed; key frames are fair game).
* ``degrade-to-distributed`` — evict the oldest *non-key* frame and mark
  the camera degraded: it sits out its next central-stage participation
  (running distributed-only on its last-known mask) to catch up. Key
  frames are never evicted.
* ``coalesce-to-key-frame`` — never evict: fold the entire backlog into
  a single capsule promoted to a key frame, so the camera resynchronizes
  with one forced central pass. Nothing is dropped.

Accounting is conservation-exact. Every offered frame ends in exactly
one disposition — rejected at the door, served, evicted on overflow,
dropped stale at dispatch, folded (coalesced) into a served capsule, or
still queued — and :meth:`BoundedFrameQueue.check_conservation` asserts
the ledger balances, which the hypothesis property suite hammers under
arbitrary offer/poll interleavings.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace
from typing import Deque, Dict, FrozenSet, Iterable, List, Optional, Tuple

from repro.obs.registry import MetricsRegistry

__all__ = [
    "BoundedFrameQueue",
    "CoalesceToKeyFrame",
    "DegradeToDistributed",
    "DropOldest",
    "FrameCapsule",
    "FrameIngest",
    "INGEST_POLICIES",
    "IngestEdge",
    "IngestPolicy",
    "OfferOutcome",
    "PollOutcome",
    "make_ingest_policy",
]


@dataclass(frozen=True)
class FrameCapsule:
    """One camera frame in flight through the ingest edge.

    ``coalesced`` counts *earlier* frames folded into this capsule by the
    coalescing policy; a freshly offered capsule always carries 0.
    """

    camera_id: int
    frame_index: int
    arrival_s: float
    is_key: bool = False
    coalesced: int = 0

    def __post_init__(self) -> None:
        if self.frame_index < 0:
            raise ValueError("frame_index must be non-negative")
        if self.coalesced < 0:
            raise ValueError("coalesced must be non-negative")


@dataclass(frozen=True)
class OfferOutcome:
    """What happened to one offered capsule."""

    admitted: bool
    evicted: Tuple[FrameCapsule, ...] = ()
    folded: bool = False  # admitted by merging, not by occupying a slot


@dataclass(frozen=True)
class PollOutcome:
    """What one dispatch drained from the queue."""

    capsule: FrameCapsule
    stale_dropped: int = 0
    folded: int = 0
    staleness_frames: int = 0
    forced_key: bool = False  # backlog was coalesced into a key capsule


def _fold(into: FrameCapsule, absorbed: FrameCapsule) -> FrameCapsule:
    """Merge ``absorbed`` (an older frame) into ``into``; key-ness sticks."""
    return replace(
        into,
        is_key=into.is_key or absorbed.is_key,
        coalesced=into.coalesced + absorbed.coalesced + 1,
    )


class IngestPolicy:
    """Overflow and backlog strategy of one bounded queue."""

    #: Registry name (``PipelineConfig.ingest_policy`` value).
    name: str = ""
    #: Whether a served backlog is folded (True) or dropped stale (False).
    coalesce_backlog: bool = False
    #: Whether an overflow puts the camera into degraded mode.
    degrade_on_overflow: bool = False

    def on_overflow(
        self, queue: Deque[FrameCapsule], incoming: FrameCapsule
    ) -> OfferOutcome:
        """Resolve a full queue; mutate ``queue`` and report the outcome."""
        raise NotImplementedError


class DropOldest(IngestPolicy):
    """Evict the head — the oldest frame — strictly in arrival order."""

    name = "drop-oldest"

    def on_overflow(
        self, queue: Deque[FrameCapsule], incoming: FrameCapsule
    ) -> OfferOutcome:
        victim = queue.popleft()
        queue.append(incoming)
        return OfferOutcome(admitted=True, evicted=(victim,))


class DegradeToDistributed(IngestPolicy):
    """Evict the oldest non-key frame; degrade the camera to catch up."""

    name = "degrade-to-distributed"
    degrade_on_overflow = True

    def on_overflow(
        self, queue: Deque[FrameCapsule], incoming: FrameCapsule
    ) -> OfferOutcome:
        for i, capsule in enumerate(queue):
            if not capsule.is_key:
                del queue[i]
                queue.append(incoming)
                return OfferOutcome(admitted=True, evicted=(capsule,))
        # Every queued frame is a key frame. A key incoming merges into
        # the newest one (no key frame is ever lost); a regular incoming
        # is the only thing droppable, and is rejected at the door.
        if incoming.is_key:
            queue[-1] = _fold(incoming, queue[-1])
            return OfferOutcome(admitted=True, folded=True)
        return OfferOutcome(admitted=False)


class CoalesceToKeyFrame(IngestPolicy):
    """Fold the whole backlog into one capsule promoted to a key frame."""

    name = "coalesce-to-key-frame"
    coalesce_backlog = True

    def on_overflow(
        self, queue: Deque[FrameCapsule], incoming: FrameCapsule
    ) -> OfferOutcome:
        capacity = len(queue)  # the queue is exactly full on overflow
        merged = queue.popleft()
        while queue:
            merged = _fold(queue.popleft(), merged)
        merged = replace(merged, is_key=True)
        if capacity == 1:
            # No slot left for a separate backlog capsule: fold the
            # backlog into the incoming frame itself.
            queue.append(_fold(incoming, merged))
            return OfferOutcome(admitted=True, folded=True)
        queue.append(merged)
        queue.append(incoming)
        return OfferOutcome(admitted=True)


_POLICY_TYPES = (DropOldest, DegradeToDistributed, CoalesceToKeyFrame)

#: Registered ingest policy names, in documentation order.
INGEST_POLICIES: Tuple[str, ...] = tuple(p.name for p in _POLICY_TYPES)


def make_ingest_policy(name: str) -> IngestPolicy:
    """Instantiate a registered policy by name."""
    for policy_type in _POLICY_TYPES:
        if policy_type.name == name:
            return policy_type()
    raise ValueError(
        f"unknown ingest policy {name!r}; options: {INGEST_POLICIES}"
    )


class BoundedFrameQueue:
    """A capacity-bounded, conservation-audited per-camera frame queue."""

    def __init__(
        self, camera_id: int, capacity: int, policy: IngestPolicy
    ) -> None:
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        self.camera_id = camera_id
        self.capacity = capacity
        self.policy = policy
        self._queue: Deque[FrameCapsule] = deque()
        self.degraded = False
        # The conservation ledger (frame counts, folded frames included).
        self.offered = 0
        self.rejected = 0
        self.evicted = 0
        self.served = 0
        self.stale_dropped = 0
        self.coalesced = 0
        self.peak_occupancy = 0

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._queue)

    @property
    def queued_frames(self) -> int:
        """Frames still in the queue, counting frames folded into capsules."""
        return sum(1 + c.coalesced for c in self._queue)

    @property
    def admitted(self) -> int:
        """Frames that made it past the door (conservation: + rejected
        == offered)."""
        return self.offered - self.rejected

    @property
    def dropped(self) -> int:
        """Frames lost outright: rejected, evicted, or dropped stale."""
        return self.rejected + self.evicted + self.stale_dropped

    def check_conservation(self) -> None:
        """Every offered frame has exactly one disposition."""
        total = (
            self.rejected
            + self.served
            + self.evicted
            + self.stale_dropped
            + self.coalesced
            + self.queued_frames
        )
        if total != self.offered:
            raise AssertionError(
                f"camera {self.camera_id}: conservation violated — "
                f"offered={self.offered} but dispositions sum to {total}"
            )

    # ------------------------------------------------------------------
    def offer(self, capsule: FrameCapsule) -> OfferOutcome:
        """Admit one arriving frame, applying the policy on overflow."""
        if capsule.camera_id != self.camera_id:
            raise ValueError(
                f"capsule for camera {capsule.camera_id} offered to "
                f"camera {self.camera_id}'s queue"
            )
        self.offered += 1
        if len(self._queue) < self.capacity:
            self._queue.append(capsule)
            self.peak_occupancy = max(self.peak_occupancy, len(self._queue))
            return OfferOutcome(admitted=True)
        outcome = self.policy.on_overflow(self._queue, capsule)
        if len(self._queue) > self.capacity:
            raise AssertionError(
                f"policy {self.policy.name!r} left the queue over capacity"
            )
        if not outcome.admitted:
            self.rejected += 1
        for victim in outcome.evicted:
            self.evicted += 1
            self.coalesced += victim.coalesced
        # Folded admissions are accounted when their carrier capsule
        # leaves the queue (``coalesced`` rides on the capsule), so no
        # ledger movement happens here.
        if outcome.admitted and self.policy.degrade_on_overflow:
            self.degraded = True
        self.peak_occupancy = max(self.peak_occupancy, len(self._queue))
        return outcome

    def poll_upto(self, frame_index: int) -> Optional[PollOutcome]:
        """Serve the freshest frame not newer than ``frame_index``.

        Consumes the whole eligible backlog: older capsules are folded
        into the served one (coalescing policy) or dropped stale (the
        others). Returns ``None`` — a stall — when nothing eligible has
        arrived yet.
        """
        eligible: list[FrameCapsule] = []
        while self._queue and self._queue[0].frame_index <= frame_index:
            eligible.append(self._queue.popleft())
        if not eligible:
            return None
        served = eligible[-1]
        backlog = eligible[:-1]
        stale = 0
        folded = 0
        forced_key = False
        if self.policy.coalesce_backlog:
            for capsule in backlog:
                served = _fold(served, capsule)
                folded += 1 + capsule.coalesced
            if backlog:
                served = replace(served, is_key=True)
                forced_key = True
        else:
            for capsule in backlog:
                if self.policy.degrade_on_overflow and capsule.is_key:
                    # The degrade policy never drops a key frame: fold it
                    # into the served capsule so its central
                    # resynchronization still happens (as a forced key).
                    served = _fold(served, capsule)
                    folded += 1 + capsule.coalesced
                    forced_key = True
                    continue
                stale += 1
                self.stale_dropped += 1
                self.coalesced += capsule.coalesced
        if served.coalesced:
            forced_key = forced_key or served.is_key
        self.served += 1
        self.coalesced += served.coalesced
        return PollOutcome(
            capsule=served,
            stale_dropped=stale,
            folded=folded,
            staleness_frames=frame_index - served.frame_index,
            forced_key=forced_key,
        )

    def count_lost_upstream(self) -> None:
        """Account a frame lost before it ever reached the queue.

        A burst window that outlasts the run swallows its frames: they
        are never offered, but the ledger still owes them a disposition,
        so they book as offered-and-rejected.
        """
        self.offered += 1
        self.rejected += 1

    def clear_degraded(self) -> None:
        """Exit degraded mode (the camera caught up / sat out one pass)."""
        self.degraded = False


@dataclass(frozen=True)
class FrameIngest:
    """The ingest edge's view of one frame, drained from every queue.

    ``stalled`` cameras had nothing eligible to serve (their frame is
    held back by a burst); ``degraded`` cameras overflowed under the
    degrade policy and sit out their next central-stage participation;
    ``forced_key`` requests an early key frame because a coalesced
    backlog needs a central resynchronization. A burst-free frame yields
    an empty view.
    """

    stalled: FrozenSet[int]
    degraded: FrozenSet[int]
    forced_key: bool
    stale_drops: Dict[int, int]
    folded: Dict[int, int]
    staleness: Dict[int, int]

    @property
    def any_active(self) -> bool:
        """False exactly when ingest was a transparent pass-through."""
        return bool(
            self.stalled or self.degraded or self.forced_key
            or self.stale_drops or self.folded or self.staleness
        )


class IngestEdge:
    """Every camera's ingest queue, and the frames bursts hold back.

    :meth:`pass_frame` runs once per frame. Each camera's frames
    released at that frame are offered in frame order — the frames held
    since its burst window opened, then the frame itself — and a
    camera's frames are released at the first frame where it is not
    bursting. After all offers every queue is drained into one
    :class:`FrameIngest`. Queues are per camera, so the order of
    offers across cameras is unobservable. The edge is plain data, so it
    checkpoints with the rest of the run.
    """

    def __init__(
        self, camera_ids: Iterable[int], capacity: int, policy: str
    ) -> None:
        self.queues: Dict[int, BoundedFrameQueue] = {
            cam: BoundedFrameQueue(cam, capacity, make_ingest_policy(policy))
            for cam in sorted(camera_ids)
        }
        #: camera -> frames produced inside its open burst window.
        self.held: Dict[int, List[FrameCapsule]] = {}

    def pass_frame(
        self,
        frame_index: int,
        arrival_s: float,
        is_key: bool,
        bursting: FrozenSet[int],
    ) -> FrameIngest:
        """Offer this frame's released arrivals, then drain every queue."""
        for cam, queue in self.queues.items():
            capsule = FrameCapsule(cam, frame_index, arrival_s, is_key)
            if cam in bursting:
                self.held.setdefault(cam, []).append(capsule)
                continue
            for held in self.held.pop(cam, ()):
                queue.offer(replace(held, arrival_s=arrival_s))
            queue.offer(capsule)
        return self._drain(frame_index)

    def _drain(self, frame_index: int) -> FrameIngest:
        stalled = set()
        degraded = set()
        forced_key = False
        stale_drops: Dict[int, int] = {}
        folded: Dict[int, int] = {}
        staleness: Dict[int, int] = {}
        for cam, queue in self.queues.items():
            outcome = queue.poll_upto(frame_index)
            if outcome is None:
                stalled.add(cam)
                continue
            if outcome.stale_dropped:
                stale_drops[cam] = outcome.stale_dropped
            if outcome.folded:
                folded[cam] = outcome.folded
            if outcome.staleness_frames:
                staleness[cam] = outcome.staleness_frames
            forced_key = forced_key or outcome.forced_key
            if queue.degraded:
                degraded.add(cam)
        return FrameIngest(
            stalled=frozenset(stalled),
            degraded=frozenset(degraded),
            forced_key=forced_key,
            stale_drops=stale_drops,
            folded=folded,
            staleness=staleness,
        )

    def clear_degraded(self, camera_id: int) -> None:
        """The camera sat out its central pass: take it out of degraded."""
        self.queues[camera_id].clear_degraded()

    def finish(self, registry: MetricsRegistry, export: bool) -> None:
        """End-of-run ledger, once per completed run.

        A burst window that reaches the end of the run swallows its
        frames: each still-held frame books as offered and rejected.
        Every queue's conservation ledger must then balance; with
        ``export`` the ledgers are published as per-camera counters.
        """
        for cam, held in self.held.items():
            for _ in held:
                self.queues[cam].count_lost_upstream()
        self.held.clear()
        for queue in self.queues.values():
            queue.check_conservation()
        if not export:
            return
        for cam, queue in self.queues.items():
            registry.counter("ingest_offered_total", camera=cam).inc(queue.offered)
            registry.counter("ingest_admitted_total", camera=cam).inc(queue.admitted)
            registry.counter("ingest_served_total", camera=cam).inc(queue.served)
            registry.counter("ingest_dropped_total", camera=cam).inc(queue.dropped)
            registry.counter("ingest_coalesced_total", camera=cam).inc(queue.coalesced)
            registry.gauge("ingest_queue_peak_depth", camera=cam).set(queue.peak_occupancy)
