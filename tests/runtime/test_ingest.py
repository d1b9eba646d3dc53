"""Property suite for the bounded ingest queue, and the ingest edge.

Hypothesis drives arbitrary interleavings of frame arrivals and
dispatch polls against every backpressure policy and asserts the
structural invariants:

* occupancy never exceeds capacity;
* conservation — ``admitted + rejected == offered`` at all times, and
  every offered frame ends in exactly one ledger disposition;
* ``drop-oldest`` evicts strictly in arrival order (always the head);
* the degrade and coalesce policies never drop a key frame: a key is
  never evicted, never rejected, and any drained backlog that contained
  a key surfaces as a key (possibly forced) capsule.
"""

import pickle

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime.ingest import (
    INGEST_POLICIES,
    BoundedFrameQueue,
    CoalesceToKeyFrame,
    DegradeToDistributed,
    DropOldest,
    FrameCapsule,
    IngestEdge,
    make_ingest_policy,
)

KEY_SAFE_POLICIES = ("degrade-to-distributed", "coalesce-to-key-frame")


def capsule(frame, is_key=False, cam=0):
    return FrameCapsule(
        camera_id=cam, frame_index=frame, arrival_s=frame * 0.1, is_key=is_key
    )


@st.composite
def interleavings(draw):
    """(capacity, key cadence, op list) — True offers, False polls."""
    capacity = draw(st.integers(1, 4))
    cadence = draw(st.integers(1, 5))
    ops = draw(st.lists(st.booleans(), min_size=1, max_size=60))
    lags = draw(
        st.lists(st.integers(0, 3), min_size=len(ops), max_size=len(ops))
    )
    return capacity, cadence, ops, lags


def drive(policy_name, capacity, cadence, ops, lags):
    """Replay one interleaving; return the queue plus observed events."""
    queue = BoundedFrameQueue(0, capacity, make_ingest_policy(policy_name))
    evicted = []
    rejected_keys = 0
    offered_key_frames = set()
    polls = []  # (eligible key indices drained, served capsule)
    queued_keys = set()
    next_frame = 0
    for op, lag in zip(ops, lags):
        if op:
            cap = capsule(next_frame, is_key=next_frame % cadence == 0)
            next_frame += 1
            outcome = queue.offer(cap)
            if cap.is_key:
                offered_key_frames.add(cap.frame_index)
                if outcome.admitted:
                    queued_keys.add(cap.frame_index)
                else:
                    rejected_keys += 1
            evicted.extend(outcome.evicted)
            for victim in outcome.evicted:
                queued_keys.discard(victim.frame_index)
        else:
            upto = max(0, next_frame - 1 - lag)
            outcome = queue.poll_upto(upto)
            if outcome is not None:
                drained = {k for k in queued_keys if k <= upto}
                queued_keys -= drained
                polls.append((drained, outcome.capsule))
        assert len(queue) <= queue.capacity
        assert queue.peak_occupancy <= queue.capacity
        assert queue.admitted + queue.rejected == queue.offered
    return queue, evicted, rejected_keys, offered_key_frames, polls


class TestConservation:
    @pytest.mark.parametrize("policy", INGEST_POLICIES)
    @settings(max_examples=200, deadline=None)
    @given(plan=interleavings())
    def test_every_offered_frame_has_one_disposition(self, policy, plan):
        queue, *_ = drive(policy, *plan)
        queue.check_conservation()  # raises on any ledger imbalance

    @pytest.mark.parametrize("policy", INGEST_POLICIES)
    @settings(max_examples=100, deadline=None)
    @given(plan=interleavings())
    def test_drain_preserves_conservation(self, policy, plan):
        """Conservation also holds after the queue is fully drained."""
        queue, *_ = drive(policy, *plan)
        while queue.poll_upto(10**9) is not None:
            pass
        assert queue.queued_frames == 0
        queue.check_conservation()
        assert (
            queue.rejected + queue.served + queue.evicted
            + queue.stale_dropped + queue.coalesced
        ) == queue.offered


class TestDropOldest:
    @settings(max_examples=200, deadline=None)
    @given(plan=interleavings())
    def test_evictions_are_strictly_in_arrival_order(self, plan):
        _, evicted, *_ = drive("drop-oldest", *plan)
        indices = [victim.frame_index for victim in evicted]
        assert indices == sorted(indices)
        assert len(set(indices)) == len(indices)  # strict, no repeats

    @settings(max_examples=200, deadline=None)
    @given(plan=interleavings())
    def test_never_rejects_at_the_door(self, plan):
        queue, *_ = drive("drop-oldest", *plan)
        assert queue.rejected == 0

    def test_evicts_the_head_even_when_it_is_a_key(self):
        queue = BoundedFrameQueue(0, 1, DropOldest())
        queue.offer(capsule(0, is_key=True))
        outcome = queue.offer(capsule(1))
        assert [v.frame_index for v in outcome.evicted] == [0]
        assert outcome.evicted[0].is_key


class TestKeyFramePreservation:
    @pytest.mark.parametrize("policy", KEY_SAFE_POLICIES)
    @settings(max_examples=200, deadline=None)
    @given(plan=interleavings())
    def test_key_frames_never_evicted_or_rejected(self, policy, plan):
        _, evicted, rejected_keys, *_ = drive(policy, *plan)
        assert rejected_keys == 0
        assert not any(victim.is_key for victim in evicted)

    @pytest.mark.parametrize("policy", KEY_SAFE_POLICIES)
    @settings(max_examples=200, deadline=None)
    @given(plan=interleavings())
    def test_drained_keys_surface_as_key_capsules(self, policy, plan):
        """A poll that consumes a queued key must serve a key capsule."""
        _, _, _, _, polls = drive(policy, *plan)
        for drained_keys, served in polls:
            if drained_keys:
                assert served.is_key

    def test_degrade_evicts_oldest_non_key_and_flags_camera(self):
        queue = BoundedFrameQueue(0, 3, DegradeToDistributed())
        queue.offer(capsule(0, is_key=True))
        queue.offer(capsule(1))
        queue.offer(capsule(2))
        outcome = queue.offer(capsule(3))
        assert [v.frame_index for v in outcome.evicted] == [1]
        assert queue.degraded
        queue.clear_degraded()
        assert not queue.degraded

    def test_coalesce_folds_backlog_and_drops_nothing(self):
        queue = BoundedFrameQueue(0, 2, CoalesceToKeyFrame())
        for frame in range(4):
            queue.offer(capsule(frame))
        outcome = queue.poll_upto(3)
        assert outcome is not None
        assert queue.evicted == 0 and queue.rejected == 0
        assert queue.stale_dropped == 0
        # Everything offered is either served or folded into the serve.
        queue.check_conservation()
        assert outcome.capsule.is_key  # backlog promoted to a key frame


class TestQueueBasics:
    def test_rejects_capsule_for_wrong_camera(self):
        queue = BoundedFrameQueue(1, 2, DropOldest())
        with pytest.raises(ValueError, match="camera 0"):
            queue.offer(capsule(0, cam=0))

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError, match="capacity"):
            BoundedFrameQueue(0, 0, DropOldest())

    def test_poll_on_empty_queue_is_a_stall(self):
        queue = BoundedFrameQueue(0, 2, DropOldest())
        assert queue.poll_upto(5) is None

    def test_poll_ignores_frames_from_the_future(self):
        queue = BoundedFrameQueue(0, 4, DropOldest())
        queue.offer(capsule(0))
        queue.offer(capsule(3))
        outcome = queue.poll_upto(1)
        assert outcome is not None and outcome.capsule.frame_index == 0
        assert len(queue) == 1  # frame 3 still waiting

    def test_staleness_counts_frames_behind_the_dispatch(self):
        queue = BoundedFrameQueue(0, 4, DropOldest())
        queue.offer(capsule(2))
        outcome = queue.poll_upto(5)
        assert outcome is not None and outcome.staleness_frames == 3

    def test_lost_upstream_books_as_offered_and_rejected(self):
        queue = BoundedFrameQueue(0, 2, DropOldest())
        queue.count_lost_upstream()
        assert queue.offered == 1 and queue.rejected == 1
        queue.check_conservation()

    def test_unknown_policy_name_rejected(self):
        with pytest.raises(ValueError, match="unknown ingest policy"):
            make_ingest_policy("teleport")


# -- The ingest edge: release rule, end-of-run ledger, checkpointing -------


def pass_frames(edge, frames, bursting_at, key_every=5):
    """Drive ``edge`` over ``frames``; ``bursting_at(f)`` -> cameras."""
    return [
        edge.pass_frame(f, f * 0.1, f % key_every == 0, bursting_at(f))
        for f in frames
    ]


def record_offers(edge, log):
    """Log ``(camera, frame)`` for every offer, and each drain as a mark."""
    for cam, queue in edge.queues.items():
        def offer(capsule, _original=queue.offer):
            log.append((capsule.camera_id, capsule.frame_index))
            return _original(capsule)

        def poll_upto(frame, _cam=cam, _original=queue.poll_upto):
            log.append(("drain", _cam, frame))
            return _original(frame)

        queue.offer = offer
        queue.poll_upto = poll_upto


class TestIngestEdge:
    def test_burst_free_frames_pass_through_untouched(self):
        for policy in INGEST_POLICIES:
            edge = IngestEdge((0, 1, 2), capacity=1, policy=policy)
            views = pass_frames(edge, range(12), lambda f: frozenset())
            assert not any(v.any_active for v in views)
            for queue in edge.queues.values():
                assert queue.served == 12 and len(queue) == 0

    def test_held_frames_are_offered_in_frame_order_before_the_drain(self):
        edge = IngestEdge((0, 1), capacity=8, policy="drop-oldest")
        window = range(3, 6)
        log = []
        pass_frames(
            edge, range(3),
            lambda f: frozenset({1}) if f in window else frozenset(),
        )
        record_offers(edge, log)
        views = pass_frames(
            edge, range(3, 7),
            lambda f: frozenset({1}) if f in window else frozenset(),
        )
        offers_1 = [entry for entry in log if entry[0] == 1]
        assert offers_1 == [(1, 3), (1, 4), (1, 5), (1, 6)]
        # All of camera 1's releases land before frame 6's drain.
        release = log.index((1, 6))
        assert log.index(("drain", 1, 6)) > release
        assert all(log.index((1, f)) < release for f in window)
        assert [1 in v.stalled for v in views] == [True, True, True, False]
        # The released backlog is served as frame 6, the rest dropped stale.
        assert views[-1].stale_drops == {1: 3}
        assert views[-1].staleness == {}

    def test_release_overflow_applies_the_policy(self):
        edge = IngestEdge((0,), capacity=2, policy="coalesce-to-key-frame")
        views = pass_frames(
            edge, range(6),
            lambda f: frozenset({0}) if 1 <= f <= 3 else frozenset(),
        )
        assert views[4].forced_key
        assert views[4].folded == {0: 3}
        edge.finish(MetricsRegistry(), export=False)
        assert edge.queues[0].dropped == 0

    def test_degraded_camera_clears_once_it_sat_out(self):
        edge = IngestEdge((0,), capacity=1, policy="degrade-to-distributed")
        views = pass_frames(
            edge, range(4),
            lambda f: frozenset({0}) if f in (1, 2) else frozenset(),
            key_every=10,
        )
        assert views[3].degraded == frozenset({0})
        edge.clear_degraded(0)
        (after,) = pass_frames(edge, [4], lambda f: frozenset(), key_every=10)
        assert after.degraded == frozenset()

    def test_open_ended_window_books_held_frames_at_completion(self):
        edge = IngestEdge((0, 1), capacity=2, policy="drop-oldest")
        pass_frames(
            edge, range(10),
            lambda f: frozenset({1}) if f >= 6 else frozenset(),
        )
        assert edge.queues[1].offered == 6  # frames 6-9 still held
        registry = MetricsRegistry()
        edge.finish(registry, export=True)
        counters = {
            (m["name"], m["labels"]["camera"]): m["value"]
            for m in registry.export()
        }
        assert counters[("ingest_offered_total", 1)] == 10
        assert counters[("ingest_admitted_total", 1)] == 6
        assert counters[("ingest_served_total", 1)] == 6
        assert counters[("ingest_dropped_total", 1)] == 4
        assert counters[("ingest_offered_total", 0)] == 10
        assert counters[("ingest_dropped_total", 0)] == 0

    def test_finish_without_export_publishes_nothing(self):
        edge = IngestEdge((0,), capacity=2, policy="drop-oldest")
        pass_frames(edge, range(3), lambda f: frozenset())
        registry = MetricsRegistry()
        edge.finish(registry, export=False)
        assert registry.export() == []

    @pytest.mark.parametrize("policy", INGEST_POLICIES)
    def test_pickled_edge_resumes_identically(self, policy):
        def bursting(f):
            return frozenset({1}) if 2 <= f <= 6 else frozenset()

        edge = IngestEdge((0, 1), capacity=2, policy=policy)
        head = pass_frames(edge, range(5), bursting)
        restored = pickle.loads(pickle.dumps(edge))
        tail = pass_frames(edge, range(5, 10), bursting)
        assert pass_frames(restored, range(5, 10), bursting) == tail
        assert head[4].stalled == frozenset({1})
