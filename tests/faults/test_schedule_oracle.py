"""``FaultSchedule.at`` against an independent per-camera reference.

Hypothesis draws schedules of every fault kind, fleet-wide and scoped,
on cameras inside and outside the rig, with open-ended windows and
crashes closed by rejoins; every compiled chaos preset is checked on
every frame as well. Every field of the one-walk view must equal the
reference's by value, type, ``float.hex`` and dict order, and
``max_drift_lag`` must match a brute-force scan of every frame.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.faults import CHAOS_PRESETS, FaultEvent, FaultKind, FaultModel, FaultSchedule
from repro.net.link import LinkFault
from tests.faults import reference_schedule as ref

#: Kinds that need a camera; the scheduler kinds never take one.
CAMERA_REQUIRED = {
    FaultKind.CAMERA_CRASH, FaultKind.PARTITION, FaultKind.GPU_SLOWDOWN,
    FaultKind.SENSOR_FREEZE, FaultKind.CLOCK_DRIFT, FaultKind.CAMERA_FLAP,
    FaultKind.QUALITY_FADE,
}
SCHEDULER = {FaultKind.SCHEDULER_CRASH, FaultKind.SCHEDULER_REJOIN}

# Each strategy's simplest value (its first) is a non-neutral one, so
# combined draws do not collapse to factors of 1.0 or probabilities of 0.
_PROB = st.sampled_from([0.5, 0.0, 1.0]) | st.floats(0.0, 1.0)
MAGNITUDES = {
    FaultKind.LINK_LOSS: _PROB,
    FaultKind.MSG_CORRUPT: _PROB,
    FaultKind.MSG_DUPLICATE: _PROB,
    FaultKind.MSG_REORDER: _PROB,
    FaultKind.LINK_DELAY: st.sampled_from([12.5, 0.0, -0.0])
    | st.floats(0.0, 500.0),
    FaultKind.GPU_SLOWDOWN: st.sampled_from([2.0, 1.0, 0.5])
    | st.floats(0.0, 8.0, exclude_min=True),
    FaultKind.CLOCK_DRIFT: st.sampled_from([0.5, 1.0, 2.5])
    | st.floats(0.0, 3.0, exclude_min=True),
    FaultKind.CAMERA_FLAP: st.sampled_from([2.0, 1.0, 3.5]) | st.floats(1.0, 6.0),
    FaultKind.QUALITY_FADE: st.sampled_from([4.0, 1.0]) | st.floats(1.0, 10.0),
}
#: Kinds that ignore their magnitude may carry any finite one.
_UNUSED = st.just(0.0) | st.floats(-5.0, 5.0)

CAMERAS = st.integers(0, 6)  # camera 6 is never in a rig
STARTS = st.integers(0, 50)
DURATIONS = st.none() | st.integers(1, 40)


def _camera(kind, draw):
    if kind in SCHEDULER:
        return None
    if kind in CAMERA_REQUIRED:
        return draw(CAMERAS)
    return draw(st.none() | CAMERAS)


@st.composite
def fault_events(draw):
    kind = draw(st.sampled_from(list(FaultKind)))
    duration = None
    if kind is not FaultKind.SCHEDULER_REJOIN:
        duration = draw(DURATIONS)
    return FaultEvent(
        kind,
        draw(STARTS),
        duration=duration,
        camera_id=_camera(kind, draw),
        magnitude=draw(MAGNITUDES.get(kind, _UNUSED)),
    )


@st.composite
def one_kind_on_many_cameras(draw):
    """Overlapping windows of one kind on several cameras (dict order)."""
    kind = draw(st.sampled_from(sorted(MAGNITUDES, key=lambda k: k.value)))
    cameras = draw(st.lists(CAMERAS, min_size=2, max_size=4, unique=True))
    return [
        FaultEvent(kind, draw(st.integers(0, 10)),
                   duration=draw(st.none() | st.integers(10, 60)),
                   camera_id=cam, magnitude=draw(MAGNITUDES[kind]))
        for cam in cameras
    ]


@st.composite
def crash_and_rejoin(draw):
    """An open-ended scheduler crash and a rejoin that may close it."""
    return [
        FaultEvent(FaultKind.SCHEDULER_CRASH, draw(STARTS)),
        FaultEvent(FaultKind.SCHEDULER_REJOIN, draw(st.integers(0, 80))),
    ]


schedules = st.builds(
    lambda events, groups, pairs: FaultSchedule(
        events + [e for group in groups + pairs for e in group]
    ),
    st.lists(fault_events(), min_size=1, max_size=10),
    st.lists(one_kind_on_many_cameras(), max_size=2),
    st.lists(crash_and_rejoin(), max_size=1),
)

#: Rigs of one to six cameras, in any order; events may name cameras
#: outside them.
rigs = st.integers(1, 6).flatmap(
    lambda k: st.permutations(range(6)).map(lambda p: p[:k])
)


def canon(value):
    """Value, type and float bits, with dict order kept."""
    if isinstance(value, float):
        return ("float", value.hex())
    if isinstance(value, bool):
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, frozenset):
        return ("frozenset", tuple(sorted(value)))
    if isinstance(value, dict):
        return ("dict", tuple((canon(k), canon(v)) for k, v in value.items()))
    if isinstance(value, tuple):
        return ("tuple", tuple(canon(v) for v in value))
    if isinstance(value, LinkFault):
        return ("LinkFault", tuple(
            (name, canon(getattr(value, name)))
            for name in LinkFault.__dataclass_fields__
        ))
    if isinstance(value, FaultEvent):
        return ("FaultEvent", repr(value))
    raise TypeError(f"no canonical form for {type(value).__name__}")


def _assert_views_equal(sched, frames, rig):
    for frame in frames:
        got = sched.at(frame, rig)
        want = ref.frame_faults(sched.events, frame, rig)
        for name in got.__dataclass_fields__:
            assert canon(getattr(got, name)) == canon(getattr(want, name)), (
                name, frame
            )


#: Every process at a high rate, so compiled schedules overlap densely.
DENSE = FaultModel(**{
    name: 0.05 for name in FaultModel.__dataclass_fields__
    if name.endswith(("_rate", "_prob"))
})


@pytest.mark.parametrize("name", sorted(CHAOS_PRESETS) + ["dense"])
@pytest.mark.parametrize("seed", [0, 1])
def test_compiled_schedules_equal_the_reference_on_every_frame(name, seed):
    model = DENSE if name == "dense" else CHAOS_PRESETS[name]
    sched = model.compile([0, 1, 2, 3, 4], 80, seed)
    for rig in ([4, 0, 2, 1, 3], [0, 2, 4]):  # the second leaves out 1, 3
        _assert_views_equal(sched, range(80), rig)
    assert sched.max_drift_lag(80) == ref.max_drift_lag(sched.events, 80)


@settings(max_examples=300, deadline=None)
@given(
    sched=schedules,
    rig=rigs,
    frames=st.lists(st.integers(0, 80), min_size=4, max_size=10),
)
def test_at_equals_the_per_camera_reference(sched, rig, frames):
    _assert_views_equal(sched, frames, rig)


@settings(max_examples=200, deadline=None)
@given(sched=schedules, n_frames=st.integers(1, 81))
def test_max_drift_lag_equals_a_scan_of_every_frame(sched, n_frames):
    assert sched.max_drift_lag(n_frames) == ref.max_drift_lag(
        sched.events, n_frames
    )


def test_drift_peaks_between_two_windows_are_found():
    # Two overlapping drift windows on one camera: their sum peaks on the
    # last frame of the first (5 + 1), above what either reaches alone
    # (5 and floor(0.2 * 20) = 4).
    sched = FaultSchedule([
        FaultEvent(FaultKind.CLOCK_DRIFT, 0, duration=10, camera_id=1,
                   magnitude=0.5),
        FaultEvent(FaultKind.CLOCK_DRIFT, 5, duration=20, camera_id=1,
                   magnitude=0.2),
    ])
    assert sched.max_drift_lag(40) == ref.max_drift_lag(sched.events, 40)
    assert sched.max_drift_lag(40) == 6
