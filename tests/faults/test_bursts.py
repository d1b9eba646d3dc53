"""Ingest-burst plumbing through the fault DSL, model, and schedule.

The ``burst:`` clause, the ``rand:burst=`` model knobs and the
``ingest`` chaos preset all land as ``INGEST_BURST`` events; this module
pins their parsing, their window semantics (``FrameFaults.bursting`` and
the ingest edge's release of held frames) and the schedule-stability
guarantee that adding burst knobs to a model never reshuffles the other
fault draws.
"""

from repro.faults.model import FaultModel
from repro.faults.schedule import FaultKind, FaultSchedule
from repro.faults.spec import CHAOS_PRESETS, parse_fault_spec
from repro.obs.registry import MetricsRegistry
from repro.runtime.ingest import IngestEdge
from repro.scenarios.bursts import (
    burst_sweep_specs,
    fleet_burst_spec,
    single_camera_burst_spec,
    staggered_burst_spec,
)


class TestBurstClauseParsing:
    def test_scoped_burst_clause(self):
        schedule = parse_fault_spec("burst:cam=1,at=10,for=6")
        assert isinstance(schedule, FaultSchedule)
        (event,) = schedule.events
        assert event.kind is FaultKind.INGEST_BURST
        assert event.camera_id == 1
        assert event.start_frame == 10 and event.duration == 6

    def test_fleet_wide_burst_clause(self):
        schedule = parse_fault_spec("burst:at=20,for=4")
        (event,) = schedule.events
        assert event.camera_id is None  # every camera stalls

    def test_burst_mixes_with_other_kinds(self):
        schedule = parse_fault_spec(
            "crash:cam=0,at=5,for=3;burst:cam=1,at=10,for=6"
        )
        kinds = [e.kind for e in schedule.events]
        assert FaultKind.CAMERA_CRASH in kinds
        assert FaultKind.INGEST_BURST in kinds

    def test_rand_burst_knobs(self):
        model = parse_fault_spec("rand:burst=0.03,burst_frames=5")
        assert isinstance(model, FaultModel)
        assert model.burst_rate == 0.03
        assert model.mean_burst_frames == 5.0

    def test_ingest_chaos_preset_carries_bursts(self):
        preset = CHAOS_PRESETS["ingest"]
        assert preset.burst_rate > 0.0


class TestBurstWindows:
    def _schedule(self):
        return parse_fault_spec("burst:cam=1,at=4,for=3;burst:cam=2,at=8")

    def test_ingest_bursting_tracks_the_window(self):
        schedule = self._schedule()

        def bursting(frame, cam):
            return cam in schedule.at(frame, [0, 1, 2]).bursting

        assert not bursting(3, 1)
        assert bursting(4, 1)
        assert bursting(6, 1)
        assert not bursting(7, 1)
        assert not bursting(5, 0)  # other cameras flow

    def _drive(self, schedule, n_frames, camera_ids=(0, 1, 2)):
        """Pass ``n_frames`` frames through an edge; per-frame stalls."""
        edge = IngestEdge(camera_ids, capacity=8, policy="drop-oldest")
        stalled = []
        for frame in range(n_frames):
            bursting = schedule.at(frame, camera_ids).bursting
            stalled.append(
                edge.pass_frame(frame, frame * 0.1, False, bursting).stalled
            )
        return edge, stalled

    def test_release_frame_is_first_frame_after_the_window(self):
        edge, stalled = self._drive(self._schedule(), n_frames=8)
        # Camera 1's frames 4-6 are held; all three arrive at frame 7,
        # which serves the newest and drops the two older ones stale.
        assert [f for f, cams in enumerate(stalled) if 1 in cams] == [4, 5, 6]
        queue = edge.queues[1]
        assert queue.offered == 8
        assert queue.served == 5 and queue.stale_dropped == 3
        # Frames outside any window release immediately.
        assert edge.queues[0].served == 8 and edge.queues[0].stale_dropped == 0

    def test_open_ended_window_swallows_frames(self):
        edge, stalled = self._drive(self._schedule(), n_frames=20)
        assert all(2 in cams for cams in stalled[8:])
        queue = edge.queues[2]
        assert queue.offered == 8  # frames 8-19 were never offered
        edge.finish(MetricsRegistry(), export=False)
        assert queue.offered == 20 and queue.rejected == 12

    def test_frame_faults_expose_bursting_cameras(self):
        schedule = self._schedule()
        faults = schedule.at(5, camera_ids=(0, 1, 2))
        assert faults.bursting == frozenset({1})
        assert schedule.at(1, camera_ids=(0, 1, 2)).bursting == frozenset()

    def test_has_ingest_bursts(self):
        assert self._schedule().has_ingest_bursts
        assert not FaultSchedule(()).has_ingest_bursts


class TestModelScheduleStability:
    def test_burst_knobs_drawn_after_a_cameras_other_kinds(self):
        """Bursts are drawn last per camera: switching them on leaves
        that camera's other fault windows exactly where they were."""
        quiet = FaultModel(crash_rate=0.2, loss_prob=0.1)
        bursty = FaultModel(
            crash_rate=0.2, loss_prob=0.1, burst_rate=0.2,
            mean_burst_frames=3.0,
        )
        a = quiet.compile((0,), n_frames=40, seed=7)
        b = bursty.compile((0,), n_frames=40, seed=7)
        non_burst = tuple(
            e for e in b.events if e.kind is not FaultKind.INGEST_BURST
        )
        assert non_burst == tuple(a.events)
        assert any(e.kind is FaultKind.INGEST_BURST for e in b.events)

    def test_compiled_bursts_are_seed_deterministic(self):
        model = FaultModel(burst_rate=0.2, mean_burst_frames=3.0)
        cams = (0, 1)
        assert (
            model.compile(cams, 30, seed=3).events
            == model.compile(cams, 30, seed=3).events
        )
        assert (
            model.compile(cams, 30, seed=3).events
            != model.compile(cams, 30, seed=4).events
        )


class TestCanonicalBurstWorkloads:
    def test_specs_parse_and_carry_bursts(self):
        for spec in burst_sweep_specs(horizon=5, total_frames=40):
            schedule = parse_fault_spec(spec)
            assert schedule.has_ingest_bursts

    def test_single_camera_spec_targets_one_camera(self):
        schedule = parse_fault_spec(single_camera_burst_spec(5, 40, camera=2))
        (event,) = schedule.events
        assert event.camera_id == 2

    def test_fleet_spec_is_fleet_wide(self):
        schedule = parse_fault_spec(fleet_burst_spec(5, 40))
        (event,) = schedule.events
        assert event.camera_id is None

    def test_staggered_windows_never_stall_everyone_at_once(self):
        schedule = parse_fault_spec(staggered_burst_spec(5, 40))
        cams = (0, 1, 2)
        for frame in range(40):
            stalled = len(schedule.at(frame, cams).bursting)
            assert stalled < len(cams)

    def test_windows_stay_inside_short_runs(self):
        for total in (4, 8, 12):
            for spec in burst_sweep_specs(horizon=5, total_frames=total):
                for event in parse_fault_spec(spec).events:
                    assert event.start_frame < total
                    assert event.end_frame is not None
                    # Strictly inside: held frames release before the end.
                    assert event.end_frame < total
