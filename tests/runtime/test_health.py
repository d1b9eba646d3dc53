"""Fleet-health watchdog: lifecycle unit tests + hypothesis properties.

The watchdog is the determinism-critical core of the fleet-membership
defense, so beyond the example-based lifecycle tests the properties
here drive it with arbitrary signal sequences and assert the contracts
the pipeline relies on: no ``QUARANTINED -> ACTIVE`` edge ever exists
(readmission always passes through PROBATION), membership epochs only
move forward and bump exactly on membership edges, scores stay in
``[0, 1]`` and fall monotonically under sustained faults, and identical
signal sequences replay to identical transitions and scores.
"""

import copy
import pickle

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.runtime.health import (
    FleetHealthWatchdog,
    HealthConfig,
    HealthSignals,
    HealthState,
    content_token,
)

CFG = HealthConfig()


def healthy(frame, cam=0):
    """A live camera watching a moving scene (token varies per frame)."""
    return HealthSignals(alive=True, content_token=frame * 31 + cam)


def frozen(token=1234):
    """A live camera repeating the same frame content."""
    return HealthSignals(alive=True, content_token=token)


def drive(watchdog, frames, make_signals):
    """Feed ``frames`` frames; return every transition taken."""
    transitions = []
    for frame in range(frames):
        transitions += watchdog.observe(frame, make_signals(frame))
    return transitions


class TestLifecycle:
    def test_healthy_fleet_never_transitions(self):
        watchdog = FleetHealthWatchdog([0, 1, 2])
        taken = drive(
            watchdog, 50,
            lambda f: {c: healthy(f, c) for c in range(3)},
        )
        assert taken == []
        assert watchdog.membership_epoch == 0
        assert set(watchdog.states().values()) == {HealthState.ACTIVE}

    def test_frozen_camera_walks_the_full_lifecycle(self):
        watchdog = FleetHealthWatchdog([0, 1])
        freeze_until = 20

        def signals(frame):
            sig0 = frozen() if frame < freeze_until else healthy(frame)
            return {0: sig0, 1: healthy(frame, 1)}

        taken = drive(watchdog, 60, signals)
        path = [(t.previous, t.state) for t in taken if t.camera_id == 0]
        assert path == [
            (HealthState.ACTIVE, HealthState.SUSPECT),
            (HealthState.SUSPECT, HealthState.QUARANTINED),
            (HealthState.QUARANTINED, HealthState.PROBATION),
            (HealthState.PROBATION, HealthState.ACTIVE),
        ]
        # The healthy peer never budged, and only membership edges (the
        # last three) bumped the epoch.
        assert all(t.camera_id == 0 for t in taken)
        assert watchdog.membership_epoch == 3
        assert watchdog.states()[0] is HealthState.ACTIVE

    def test_quarantine_reacts_within_configured_frames(self):
        watchdog = FleetHealthWatchdog([0])
        deadline = CFG.suspect_after + CFG.quarantine_after + 1
        drive(watchdog, deadline + 1, lambda f: {0: frozen()})
        assert watchdog.states()[0] is HealthState.QUARANTINED

    def test_minimum_quarantine_dwell_is_respected(self):
        watchdog = FleetHealthWatchdog([0])
        quarantine_frame = None
        probation_frame = None
        for frame in range(80):
            # Fault clears the instant quarantine lands: the dwell alone
            # must hold the camera out.
            sig = frozen() if quarantine_frame is None else healthy(frame)
            for t in watchdog.observe(frame, {0: sig}):
                if t.state is HealthState.QUARANTINED:
                    quarantine_frame = frame
                if t.state is HealthState.PROBATION:
                    probation_frame = frame
        assert quarantine_frame is not None and probation_frame is not None
        assert (
            probation_frame - quarantine_frame >= CFG.min_quarantine_frames
        )

    def test_probation_relapse_returns_to_quarantine(self):
        watchdog = FleetHealthWatchdog([0])
        state = {"relapsed": False}

        def signals(frame):
            if watchdog.states()[0] is HealthState.PROBATION:
                state["relapsed"] = True
                return {0: frozen(99)}  # one bad frame on the leash
            if state["relapsed"]:
                return {0: healthy(frame)}
            return {0: frozen() if frame < 10 else healthy(frame)}

        taken = drive(watchdog, 40, signals)
        edges = [(t.previous, t.state) for t in taken]
        assert (HealthState.PROBATION, HealthState.QUARANTINED) in edges

    def test_flapping_heartbeat_is_unhealthy_even_while_up(self):
        watchdog = FleetHealthWatchdog([0])
        drive(
            watchdog, 30,
            lambda f: {0: HealthSignals(alive=f % 2 == 0,
                                        content_token=f * 31)},
        )
        assert watchdog.states()[0] is HealthState.QUARANTINED

    def test_skew_and_quality_signals_quarantine(self):
        for sig in (
            HealthSignals(alive=True, content_token=0,
                          skew_frames=CFG.skew_tolerance_frames + 1),
            HealthSignals(alive=True, content_token=0,
                          quality=CFG.quality_floor - 0.2),
        ):
            watchdog = FleetHealthWatchdog([0])
            for frame in range(20):
                varied = HealthSignals(
                    alive=True, content_token=frame * 31,
                    skew_frames=sig.skew_frames, quality=sig.quality,
                )
                watchdog.observe(frame, {0: varied})
            assert watchdog.states()[0] is HealthState.QUARANTINED

    def test_missing_signals_leave_camera_untouched(self):
        watchdog = FleetHealthWatchdog([0, 1])
        drive(watchdog, 20, lambda f: {1: healthy(f, 1)})
        assert watchdog.states()[0] is HealthState.ACTIVE
        assert watchdog.score_of(0) == 1.0

    def test_watchdog_requires_cameras(self):
        with pytest.raises(ValueError):
            FleetHealthWatchdog([])

    def test_config_validation(self):
        with pytest.raises(ValueError):
            HealthConfig(probation_frames=0)
        with pytest.raises(ValueError):
            HealthConfig(quality_floor=0.0)
        with pytest.raises(ValueError):
            HealthConfig(skew_tolerance_frames=-1)

    def test_watchdog_pickles_mid_lifecycle(self):
        watchdog = FleetHealthWatchdog([0, 1])
        drive(watchdog, 8, lambda f: {0: frozen(), 1: healthy(f, 1)})
        clone = pickle.loads(pickle.dumps(watchdog))
        assert clone.states() == watchdog.states()
        # Both halves continue identically from the restore point.
        for frame in range(8, 30):
            sigs = {0: frozen(), 1: healthy(frame, 1)}
            a = watchdog.observe(frame, sigs)
            b = clone.observe(frame, copy.deepcopy(sigs))
            assert a == b
        assert clone.membership_epoch == watchdog.membership_epoch


class TestContentToken:
    def test_token_tracks_scene_motion(self):
        class Obj:
            def __init__(self, object_id, x, y):
                self.object_id = object_id
                self.x = x
                self.y = y

        a = [Obj(1, 10.0, 20.0), Obj(2, 30.0, 40.0)]
        moved = [Obj(1, 10.5, 20.0), Obj(2, 30.0, 40.0)]
        noise = [Obj(1, 10.004, 20.0), Obj(2, 30.0, 40.0)]
        assert content_token(a) == content_token(list(a))
        assert content_token(a) != content_token(moved)
        # Sub-quantum float noise does not defeat freeze detection.
        assert content_token(a) == content_token(noise)
        assert content_token([]) == content_token([])


# ---------------------------------------------------------------------------
# Hypothesis properties
# ---------------------------------------------------------------------------

#: One frame of one camera's raw signal material. Tokens are drawn from a
#: tiny alphabet so repeats (the freeze signature) actually occur.
signal_st = st.builds(
    HealthSignals,
    alive=st.booleans(),
    content_token=st.integers(min_value=0, max_value=3),
    skew_frames=st.integers(min_value=0, max_value=5),
    quality=st.one_of(
        st.none(), st.floats(min_value=0.0, max_value=1.0)
    ),
)

sequence_st = st.lists(signal_st, min_size=1, max_size=60)


@settings(max_examples=60, deadline=None)
@given(seq=sequence_st)
def test_no_transition_skips_probation(seq):
    """Hysteresis: there is no QUARANTINED -> ACTIVE edge, ever."""
    watchdog = FleetHealthWatchdog([0])
    for frame, sig in enumerate(seq):
        for t in watchdog.observe(frame, {0: sig}):
            assert not (
                t.previous is HealthState.QUARANTINED
                and t.state is HealthState.ACTIVE
            )
            if t.state is HealthState.ACTIVE:
                assert t.previous in (
                    HealthState.SUSPECT, HealthState.PROBATION
                )


@settings(max_examples=60, deadline=None)
@given(seq=sequence_st)
def test_epoch_monotone_and_counts_membership_edges(seq):
    watchdog = FleetHealthWatchdog([0])
    last_epoch = 0
    membership_edges = 0
    for frame, sig in enumerate(seq):
        for t in watchdog.observe(frame, {0: sig}):
            assert t.epoch >= last_epoch
            last_epoch = t.epoch
            if t.membership_change:
                membership_edges += 1
            else:
                # Observational edges never move the epoch.
                assert t.epoch == watchdog.membership_epoch
    assert watchdog.membership_epoch == membership_edges
    assert last_epoch == watchdog.membership_epoch


@settings(max_examples=60, deadline=None)
@given(seq=sequence_st)
def test_score_stays_in_unit_interval(seq):
    watchdog = FleetHealthWatchdog([0])
    for frame, sig in enumerate(seq):
        watchdog.observe(frame, {0: sig})
        assert 0.0 <= watchdog.score_of(0) <= 1.0


@settings(max_examples=40, deadline=None)
@given(frames=st.integers(min_value=1, max_value=50))
def test_score_decays_monotonically_under_sustained_fault(frames):
    """A dead camera's score strictly decreases toward zero."""
    watchdog = FleetHealthWatchdog([0])
    last = watchdog.score_of(0)
    for frame in range(frames):
        watchdog.observe(frame, {0: HealthSignals(alive=False)})
        score = watchdog.score_of(0)
        assert score < last
        last = score


@settings(max_examples=40, deadline=None)
@given(seq=sequence_st)
def test_identical_sequences_replay_identically(seq):
    """Determinism: the watchdog is a pure function of its inputs."""
    a = FleetHealthWatchdog([0, 1])
    b = FleetHealthWatchdog([0, 1])
    for frame, sig in enumerate(seq):
        sigs = {0: sig, 1: healthy(frame, 1)}
        assert a.observe(frame, sigs) == b.observe(
            frame, copy.deepcopy(sigs)
        )
        assert a.score_of(0) == b.score_of(0)
    assert a.states() == b.states()
    assert a.membership_epoch == b.membership_epoch


@settings(max_examples=40, deadline=None)
@given(seq=sequence_st)
def test_quarantine_needs_a_sustained_streak(seq):
    """No camera is quarantined faster than the configured streaks
    allow: quarantine requires ``suspect_after + quarantine_after``
    consecutive unhealthy frames, so any shorter prefix cannot have
    produced one."""
    watchdog = FleetHealthWatchdog([0])
    quarantined_at = None
    for frame, sig in enumerate(seq):
        for t in watchdog.observe(frame, {0: sig}):
            if (
                t.state is HealthState.QUARANTINED
                and quarantined_at is None
            ):
                quarantined_at = frame
    floor = CFG.suspect_after + CFG.quarantine_after
    if quarantined_at is not None:
        assert quarantined_at >= floor - 1
