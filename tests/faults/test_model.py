"""FaultModel validation and deterministic compilation."""

import pytest

from repro.faults import FaultKind, FaultModel


def test_validation_rejects_bad_rates():
    with pytest.raises(ValueError):
        FaultModel(crash_rate=1.5)
    with pytest.raises(ValueError):
        FaultModel(loss_prob=-0.1)
    with pytest.raises(ValueError):
        FaultModel(mean_outage_frames=0.5)
    with pytest.raises(ValueError):
        FaultModel(slowdown_factor=0.0)
    with pytest.raises(ValueError):
        FaultModel(delay_ms=-1.0)


@pytest.mark.parametrize("name", sorted(FaultModel.__dataclass_fields__))
@pytest.mark.parametrize("value", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_fields_rejected_naming_the_field(name, value):
    with pytest.raises(ValueError, match=rf"^{name} must be finite"):
        FaultModel(**{name: value})


def test_null_model_compiles_empty():
    model = FaultModel()
    assert model.is_null
    assert len(model.compile([0, 1], 100, seed=3)) == 0


def test_same_seed_same_schedule():
    model = FaultModel(crash_rate=0.05, partition_rate=0.02,
                       slowdown_rate=0.03, delay_spike_rate=0.02,
                       loss_prob=0.1)
    a = model.compile([0, 1, 2], 200, seed=42)
    b = model.compile([0, 1, 2], 200, seed=42)
    assert a.events == b.events
    assert len(a) > 0


def test_different_seeds_differ():
    model = FaultModel(crash_rate=0.05)
    a = model.compile([0, 1, 2], 500, seed=1)
    b = model.compile([0, 1, 2], 500, seed=2)
    assert a.events != b.events


def test_camera_order_does_not_matter():
    model = FaultModel(crash_rate=0.05, slowdown_rate=0.02)
    a = model.compile([2, 0, 1], 200, seed=7)
    b = model.compile([0, 1, 2], 200, seed=7)
    assert a.events == b.events


def test_windows_stay_within_run_and_never_overlap_per_kind():
    model = FaultModel(crash_rate=0.1, mean_outage_frames=20.0)
    sched = model.compile([0], 100, seed=0)
    crashes = [e for e in sched.events
               if e.kind is FaultKind.CAMERA_CRASH]
    assert crashes, "a 10% rate over 100 frames should fire"
    last_end = 0
    for e in sorted(crashes, key=lambda e: e.start_frame):
        assert e.start_frame >= last_end
        assert e.duration is not None and e.duration >= 1
        assert e.end_frame <= 100
        last_end = e.end_frame


def test_steady_loss_becomes_fleet_wide_event():
    sched = FaultModel(loss_prob=0.2).compile([0, 1], 50, seed=0)
    assert len(sched) == 1
    (event,) = sched.events
    assert event.kind is FaultKind.LINK_LOSS
    assert event.camera_id is None
    assert event.magnitude == 0.2
    assert event.start_frame == 0 and event.end_frame == 50


def test_compile_rejects_empty_run():
    with pytest.raises(ValueError):
        FaultModel(crash_rate=0.1).compile([0], 0, seed=0)


def test_scheduler_rate_validation():
    with pytest.raises(ValueError):
        FaultModel(scheduler_crash_rate=1.5)
    with pytest.raises(ValueError):
        FaultModel(mean_scheduler_outage_frames=0.5)
    assert not FaultModel(scheduler_crash_rate=0.01).is_null


def test_scheduler_process_does_not_perturb_camera_draws():
    # Adding a scheduler process must leave the camera fault schedules of
    # a scheduler-free model exactly as they were before the kind existed.
    base = FaultModel(crash_rate=0.05, loss_prob=0.1)
    with_sched = FaultModel(crash_rate=0.05, loss_prob=0.1,
                            scheduler_crash_rate=0.02)
    a = base.compile([0, 1, 2], 300, seed=7)
    b = with_sched.compile([0, 1, 2], 300, seed=7)
    camera_events = [e for e in b.events
                     if e.kind is not FaultKind.SCHEDULER_CRASH]
    assert a.events == tuple(camera_events) or list(a.events) == camera_events


def test_scheduler_outages_compile_within_run():
    model = FaultModel(scheduler_crash_rate=0.05,
                       mean_scheduler_outage_frames=10.0)
    sched = model.compile([0], 200, seed=1)
    crashes = [e for e in sched.events
               if e.kind is FaultKind.SCHEDULER_CRASH]
    assert crashes
    for e in crashes:
        assert e.camera_id is None
        assert e.end_frame is not None and e.end_frame <= 200
