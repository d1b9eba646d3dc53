"""FailoverManager: election order, takeover/handback state machine."""

import pytest

from repro.net import LeaseConfig, SchedulerCheckpoint
from repro.net.link import DuplexChannel
from repro.runtime.failover import PRIMARY, FailoverManager


def make_manager(**kwargs):
    defaults = dict(
        camera_ids=[0, 1, 2],
        capacities={0: 1.0, 1: 3.0, 2: 2.0},
        lease=LeaseConfig(heartbeat_interval_frames=5, lease_misses=1),
        frame_dt_s=0.1,
    )
    defaults.update(kwargs)
    return FailoverManager(**defaults)


def checkpoint_at(frame):
    return SchedulerCheckpoint(
        frame_index=frame,
        priority_order=(1, 2, 0),
        assigned={0: (3,), 1: (4, 5)},
        association={7: ((0, 3), (1, 4)), 8: ((1, 5),)},
    )


def test_standby_order_is_capacity_then_id():
    mgr = make_manager()
    assert mgr.standby_order == (1, 2, 0)
    tie = make_manager(capacities={0: 1.0, 1: 1.0, 2: 1.0})
    assert tie.standby_order == (0, 1, 2)


def test_frame_dt_must_be_positive():
    with pytest.raises(ValueError):
        make_manager(frame_dt_s=0.0)


def test_healthy_frames_produce_no_transitions():
    mgr = make_manager()
    for frame in range(20):
        assert mgr.step(frame, False, [0, 1, 2]) is None
    assert mgr.primary_alive and mgr.leader_id == PRIMARY
    assert mgr.central_available


def test_takeover_within_one_heartbeat_interval():
    mgr = make_manager()
    mgr.record_replication(checkpoint_at(10), delivered=True)
    for frame in range(12):
        assert mgr.step(frame, False, [0, 1, 2]) is None
    assert mgr.step(12, True, [0, 1, 2]) is None  # crash frame: detection lag
    assert not mgr.central_available
    transitions = [
        (frame, mgr.step(frame, True, [0, 1, 2])) for frame in range(13, 20)
    ]
    fired = [(f, t) for f, t in transitions if t is not None]
    assert len(fired) == 1
    frame, takeover = fired[0]
    # first heartbeat-due frame strictly after the crash
    assert frame == 15
    assert frame - 12 <= mgr.lease.heartbeat_interval_frames
    assert takeover.kind == "takeover"
    assert takeover.leader_id == 1  # highest capacity
    assert takeover.replica_frame == 10
    # recovery = detection (3 frames at 100 ms) + modeled takeover cost
    assert takeover.recovery_ms == pytest.approx(
        300.0 + takeover.cost_ms
    )
    assert mgr.central_available and mgr.leader_id == 1


def test_handback_restores_primary_and_forgets_crash():
    mgr = make_manager()
    mgr.step(0, False, [0, 1, 2])
    mgr.step(2, True, [0, 1, 2])
    takeover = mgr.step(5, True, [0, 1, 2])
    assert takeover is not None and takeover.kind == "takeover"
    handback = mgr.step(9, False, [0, 1, 2])
    assert handback is not None and handback.kind == "handback"
    assert handback.leader_id == PRIMARY
    assert handback.recovery_ms is None  # central duty never lapsed
    assert mgr.primary_alive and mgr.leader_camera is None
    assert mgr.step(10, False, [0, 1, 2]) is None


def test_outage_shorter_than_detection_records_recovery_on_handback():
    mgr = make_manager()
    mgr.step(0, False, [0, 1, 2])
    mgr.step(1, True, [0, 1, 2])  # crash
    assert mgr.step(2, True, [0, 1, 2]) is None  # lease still live
    handback = mgr.step(3, False, [0, 1, 2])  # rejoin before takeover
    assert handback is not None and handback.kind == "handback"
    assert handback.recovery_ms == pytest.approx(200.0)  # 2 frames down
    assert handback.cost_ms == 0.0  # nothing to sync back


def test_dead_leader_reelects_immediately():
    mgr = make_manager()
    mgr.step(2, True, [0, 1, 2])
    takeover = mgr.step(5, True, [0, 1, 2])
    assert takeover.leader_id == 1
    # the leading standby dies: next-best standby takes over with no
    # extra detection lag (the fleet is already in failover mode)
    second = mgr.step(6, True, [0, 2])
    assert second is not None and second.kind == "takeover"
    assert second.leader_id == 2
    assert second.recovery_ms == pytest.approx(second.cost_ms)


def test_no_live_standby_leaves_central_down():
    mgr = make_manager()
    mgr.step(2, True, [0, 1, 2])
    assert mgr.step(5, True, []) is None
    assert not mgr.central_available


def test_replication_target_skips_leader():
    mgr = make_manager()
    assert mgr.replication_target([0, 1, 2]) == 1
    mgr.step(2, True, [0, 1, 2])
    mgr.step(5, True, [0, 1, 2])  # camera 1 now leads
    assert mgr.replication_target([0, 1, 2]) == 2
    assert mgr.replication_target([1]) is None


def test_record_replication_tracks_freshness():
    mgr = make_manager()
    mgr.record_replication(checkpoint_at(5), delivered=True)
    assert mgr.replica.frame_index == 5
    mgr.record_replication(checkpoint_at(10), delivered=False)
    assert mgr.replica.frame_index == 5  # stale replica kept


def test_takeover_cost_includes_claim_broadcast_over_links():
    channels = {cam: DuplexChannel(seed=cam) for cam in (0, 1, 2)}
    with_links = make_manager(channels=channels)
    without = make_manager()
    for mgr in (with_links, without):
        mgr.record_replication(checkpoint_at(3), delivered=True)
        mgr.step(2, True, [0, 1, 2])
    t_links = with_links.step(5, True, [0, 1, 2])
    t_free = without.step(5, True, [0, 1, 2])
    assert t_links.cost_ms > t_free.cost_ms  # broadcast rides real links
    assert t_free.cost_ms >= with_links.lease.takeover_restore_ms


def test_checkpoint_payload_grows_with_state():
    small = checkpoint_at(0)
    big = SchedulerCheckpoint(
        frame_index=0,
        priority_order=tuple(range(10)),
        assigned={c: tuple(range(8)) for c in range(10)},
        association={g: tuple((c, g) for c in range(5)) for g in range(40)},
    )
    assert big.payload_bytes() > small.payload_bytes()
    assert big.n_global_objects == 40
