"""FaultEvent/FaultSchedule semantics: windows, queries, per-frame views."""

import pickle

import pytest

from repro.faults import FaultEvent, FaultKind, FaultSchedule
from repro.net.link import LinkFault


def _link(sched, frame, camera_id):
    """One camera's link fault at ``frame`` (a clean link when absent)."""
    return sched.at(frame, [camera_id]).link_faults.get(camera_id, LinkFault())


def _down(event, frame):
    """Is ``event``'s camera down at ``frame`` in a one-event schedule?"""
    cam = event.camera_id
    return cam in FaultSchedule([event]).at(frame, [cam]).down


def test_event_window_half_open():
    e = FaultEvent(FaultKind.CAMERA_CRASH, start_frame=5, duration=3,
                   camera_id=1)
    assert e.end_frame == 8
    assert not _down(e, 4)
    assert _down(e, 5)
    assert _down(e, 7)
    assert not _down(e, 8)


def test_event_open_ended_until_run_end():
    e = FaultEvent(FaultKind.CAMERA_CRASH, start_frame=5, camera_id=0)
    assert e.end_frame is None
    assert _down(e, 5)
    assert _down(e, 10_000)


def test_event_validation():
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.CAMERA_CRASH, start_frame=-1, camera_id=0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.CAMERA_CRASH, start_frame=0, duration=0,
                   camera_id=0)
    # crash / partition / gpu need a camera
    for kind in (FaultKind.CAMERA_CRASH, FaultKind.PARTITION,
                 FaultKind.GPU_SLOWDOWN):
        with pytest.raises(ValueError):
            FaultEvent(kind, start_frame=0, magnitude=2.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.LINK_LOSS, start_frame=0, magnitude=1.5)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.LINK_DELAY, start_frame=0, magnitude=-1.0)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.GPU_SLOWDOWN, start_frame=0, camera_id=0,
                   magnitude=0.0)


def test_fleet_wide_link_fault_applies_to_every_camera():
    e = FaultEvent(FaultKind.LINK_LOSS, start_frame=0, magnitude=0.5)
    assert e.applies_to(0) and e.applies_to(7)
    scoped = FaultEvent(FaultKind.LINK_LOSS, start_frame=0, camera_id=2,
                        magnitude=0.5)
    assert scoped.applies_to(2) and not scoped.applies_to(3)


def test_schedule_down_and_partitioned_queries():
    sched = FaultSchedule([
        FaultEvent(FaultKind.CAMERA_CRASH, 10, duration=5, camera_id=1),
        FaultEvent(FaultKind.PARTITION, 12, duration=4, camera_id=2),
    ])
    rig = [0, 1, 2]
    assert sched.at(9, rig).down == frozenset()
    assert sched.at(10, rig).down == frozenset({1})
    assert sched.at(13, rig).partitioned == frozenset({2})
    assert sched.at(15, rig).down == frozenset()


def test_loss_prob_composes_as_survival_product():
    sched = FaultSchedule([
        FaultEvent(FaultKind.LINK_LOSS, 0, duration=10, magnitude=0.5),
        FaultEvent(FaultKind.LINK_LOSS, 0, duration=10, camera_id=0,
                   magnitude=0.5),
    ])
    assert _link(sched, 0, 0).loss_prob == pytest.approx(0.75)
    assert _link(sched, 0, 1).loss_prob == pytest.approx(0.5)
    assert _link(sched, 10, 0).loss_prob == 0.0


def test_gpu_factor_multiplies_and_delay_sums():
    sched = FaultSchedule([
        FaultEvent(FaultKind.GPU_SLOWDOWN, 0, duration=5, camera_id=0,
                   magnitude=2.0),
        FaultEvent(FaultKind.GPU_SLOWDOWN, 0, duration=5, camera_id=0,
                   magnitude=3.0),
        FaultEvent(FaultKind.LINK_DELAY, 0, duration=5, magnitude=10.0),
        FaultEvent(FaultKind.LINK_DELAY, 0, duration=5, camera_id=0,
                   magnitude=5.0),
    ])
    gpu = sched.at(0, [0, 1]).gpu_factor
    assert gpu.get(0, 1.0) == pytest.approx(6.0)
    assert gpu.get(1, 1.0) == 1.0
    assert _link(sched, 0, 0).extra_delay_ms == pytest.approx(15.0)
    assert _link(sched, 0, 1).extra_delay_ms == pytest.approx(10.0)


def test_at_partition_is_total_loss():
    sched = FaultSchedule([
        FaultEvent(FaultKind.PARTITION, 0, duration=3, camera_id=1),
    ])
    view = sched.at(0, [0, 1])
    assert view.partitioned == frozenset({1})
    assert view.down == frozenset()
    assert view.link_faults[1].loss_prob == 1.0
    assert 0 not in view.link_faults
    assert view.any_active


def test_at_restricts_to_known_cameras():
    sched = FaultSchedule([
        FaultEvent(FaultKind.CAMERA_CRASH, 0, duration=3, camera_id=99),
    ])
    view = sched.at(0, [0, 1])
    assert view.down == frozenset()


def test_started_at_reports_openings_once():
    e = FaultEvent(FaultKind.CAMERA_CRASH, 4, duration=3, camera_id=0)
    sched = FaultSchedule([e])
    assert sched.at(4, [0]).started == (e,)
    assert sched.at(5, [0]).started == ()


def test_empty_schedule_is_falsy_and_inert():
    sched = FaultSchedule()
    assert not sched
    assert len(sched) == 0
    view = sched.at(0, [0, 1, 2])
    assert not view.any_active


def test_scheduler_event_validation():
    # scheduler faults target the central node: no camera id allowed
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.SCHEDULER_CRASH, start_frame=0, camera_id=1)
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.SCHEDULER_REJOIN, start_frame=5, camera_id=0)
    # rejoin is instantaneous
    with pytest.raises(ValueError):
        FaultEvent(FaultKind.SCHEDULER_REJOIN, start_frame=5, duration=3)


def test_scheduler_down_window():
    sched = FaultSchedule([
        FaultEvent(FaultKind.SCHEDULER_CRASH, 10, duration=5),
    ])
    assert sched.has_scheduler_faults
    assert not sched.at(9, [0, 1]).scheduler_down
    assert sched.at(10, [0, 1]).scheduler_down
    assert sched.at(14, [0, 1]).scheduler_down
    assert not sched.at(15, [0, 1]).scheduler_down
    view = sched.at(12, [0, 1])
    assert view.scheduler_down and view.any_active
    assert not sched.at(20, [0, 1]).scheduler_down


def test_scheduler_open_crash_closed_by_rejoin():
    sched = FaultSchedule([
        FaultEvent(FaultKind.SCHEDULER_CRASH, 8),
        FaultEvent(FaultKind.SCHEDULER_REJOIN, 20),
    ])
    assert sched.at(8, [0]).scheduler_down
    assert sched.at(19, [0]).scheduler_down
    assert not sched.at(20, [0]).scheduler_down
    assert not sched.at(100, [0]).scheduler_down


def test_scheduler_open_crash_without_rejoin_lasts_forever():
    sched = FaultSchedule([FaultEvent(FaultKind.SCHEDULER_CRASH, 8)])
    assert sched.at(10_000, [0]).scheduler_down


def test_camera_schedules_report_no_scheduler_faults():
    sched = FaultSchedule([
        FaultEvent(FaultKind.CAMERA_CRASH, 0, duration=2, camera_id=0),
    ])
    assert not sched.has_scheduler_faults
    assert not sched.at(0, []).scheduler_down
    assert not sched.at(0, [0]).scheduler_down


#: ``_pickled_schedule()`` as pickled (protocol 4) before the schedule
#: derived its windows: the bytes checkpoints already hold.
_OLDER_PICKLE = bytes.fromhex(
    "8004952f010000000000008c15726570726f2e6661756c74732e7363686564756c65948c"
    "0d4661756c745363686564756c659493942981947d948c066576656e74739468008c0a46"
    "61756c744576656e749493942981947d94288c046b696e649468008c094661756c744b69"
    "6e649493948c096c696e6b5f6c6f737394859452948c0b73746172745f6672616d65944b"
    "008c086475726174696f6e944b058c0963616d6572615f6964944e8c096d61676e697475"
    "646594473fd0000000000000756268072981947d9428680a680c8c0f7363686564756c65"
    "725f6372617368948594529468104b0368114e68124e6813470000000000000000756268"
    "072981947d9428680a680c8c107363686564756c65725f72656a6f696e94859452946810"
    "4b0968114e68124e68134700000000000000007562879473622e"
)


def _pickled_schedule():
    return FaultSchedule([
        FaultEvent(FaultKind.SCHEDULER_CRASH, 3),
        FaultEvent(FaultKind.SCHEDULER_REJOIN, 9),
        FaultEvent(FaultKind.LINK_LOSS, 0, duration=5, magnitude=0.25),
    ])


def test_pickle_holds_only_the_events():
    sched = _pickled_schedule()
    assert sched.__getstate__() == {"events": sched.events}
    assert pickle.dumps(sched, protocol=4) == _OLDER_PICKLE


def test_older_pickle_resolves_frames_like_a_fresh_schedule():
    loaded = pickle.loads(_OLDER_PICKLE)
    fresh = _pickled_schedule()
    assert loaded.events == fresh.events
    for frame in range(12):
        assert loaded.at(frame, [0, 1]) == fresh.at(frame, [0, 1])
    assert loaded.at(8, [0]).scheduler_down
    assert not loaded.at(9, [0]).scheduler_down
    assert _link(loaded, 4, 1).loss_prob == 0.25
