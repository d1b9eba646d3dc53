"""Fault injection & graceful degradation, end to end.

Acceptance criteria for the fault subsystem on the golden S1/seed-0
configuration:

* a scripted mid-run camera crash under ``balb`` completes every horizon,
  re-adopts the dead camera's shared objects within one (forced) key
  frame, and reports the unrecoverable remainder as coverage loss;
* effective recall stays strictly above the naive recall that counts the
  dead camera's objects as plain misses;
* same-seed faulted runs are bit-identical;
* the faulted key-frame span tree (fault events, retry spans) is pinned
  structurally, like the fault-free golden trees.
"""

import pytest

from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.scenarios.aic21 import get_scenario
from tests.obs.span_tree import span_tree_signature

CRASH_SPEC = "crash:cam=1,at=12,for=10"
N_CAMERAS = 5


def _config(**overrides):
    base = dict(
        policy="balb",
        horizon=5,
        n_horizons=8,
        warmup_s=20.0,
        train_duration_s=60.0,
        seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _counter_sum(result, name):
    return sum(
        m["value"] for m in result.metrics
        if m["kind"] == "counter" and m["name"] == name
    )


def _deterministic_metrics(result):
    # everything except the one genuinely wall-clock instrument
    return [m for m in result.metrics if m["name"] != "frame_wall_ms"]


@pytest.fixture(scope="module")
def trained_s1():
    scenario = get_scenario("S1", seed=0)
    trained = train_models(scenario, _config())
    return scenario, trained


@pytest.fixture(scope="module")
def fault_free(trained_s1):
    scenario, trained = trained_s1
    return run_policy(scenario, "balb", _config(), trained)


@pytest.fixture(scope="module")
def crash_run(trained_s1):
    scenario, trained = trained_s1
    return run_policy(
        scenario, "balb", _config(faults=CRASH_SPEC), trained
    )


class TestCameraCrash:
    def test_run_completes_all_horizons(self, crash_run):
        assert crash_run.n_frames == 40

    def test_dead_camera_does_not_process(self, crash_run):
        for f in crash_run.frames:
            if 12 <= f.frame_index < 22:
                assert 1 not in f.inference_ms
            else:
                assert 1 in f.inference_ms

    def test_crash_and_rejoin_force_early_key_frames(self, crash_run):
        key_frames = [f.frame_index for f in crash_run.frames
                      if f.is_key_frame]
        # horizon boundaries plus the crash (12) and rejoin (22) failovers
        assert key_frames == [0, 5, 10, 12, 15, 20, 22, 25, 30, 35]
        assert _counter_sum(crash_run, "forced_key_frames_total") == 2

    def test_coverage_loss_reports_unrecoverable_remainder(self, crash_run):
        assert crash_run.coverage_loss() > 0.0
        lost_frames = [f.frame_index for f in crash_run.frames
                       if f.coverage_lost]
        assert lost_frames, "camera 1 must have exclusive objects sometime"
        assert all(12 <= i < 22 for i in lost_frames)
        assert _counter_sum(
            crash_run, "coverage_lost_object_frames_total"
        ) == sum(len(f.coverage_lost) for f in crash_run.frames)

    def test_recall_beats_naive_camera_drop(self, crash_run):
        effective = crash_run.object_recall()
        naive = crash_run.object_recall(count_lost_as_missed=True)
        assert effective > naive

    def test_readoption_keeps_recall_near_fault_free(self, crash_run,
                                                     fault_free):
        # Shared objects are re-adopted by overlapping cameras, so
        # effective recall stays within a few points of the healthy run.
        assert crash_run.object_recall() >= fault_free.object_recall() - 0.05

    def test_down_frames_counted_per_camera(self, crash_run):
        assert _counter_sum(crash_run, "camera_down_frames_total") == 10


class TestOtherFaultKinds:
    def test_loss_only_run_drops_messages_without_coverage_loss(
        self, trained_s1, fault_free
    ):
        scenario, trained = trained_s1
        result = run_policy(
            scenario, "balb", _config(faults="loss:p=0.3"), trained
        )
        assert result.n_frames == 40
        assert result.coverage_loss() == 0.0
        assert _counter_sum(result, "messages_dropped_total") > 0
        # stale-decision fallback degrades gently, never catastrophically
        assert result.object_recall() >= fault_free.object_recall() - 0.1

    def test_gpu_slowdown_raises_only_that_cameras_latency(
        self, trained_s1, fault_free
    ):
        scenario, trained = trained_s1
        result = run_policy(
            scenario, "balb", _config(faults="gpu:cam=0,x=3"), trained
        )
        slowed = result.per_camera_mean_latency()
        healthy = fault_free.per_camera_mean_latency()
        assert slowed[0] > 2.0 * healthy[0]
        for cam in range(1, N_CAMERAS):
            assert slowed[cam] == pytest.approx(healthy[cam])

    def test_partition_falls_back_to_stale_decision(self, trained_s1):
        scenario, trained = trained_s1
        result = run_policy(
            scenario, "balb",
            _config(faults="partition:cam=1,at=10,for=10"), trained,
        )
        # the partitioned camera keeps processing on its stale decision
        assert all(1 in f.inference_ms for f in result.frames)
        assert result.coverage_loss() == 0.0
        assert _counter_sum(result, "assignment_fallbacks_total") >= 1
        assert _counter_sum(result, "message_retries_total") >= 1


class TestDeterminism:
    def test_same_seed_faulted_runs_are_identical(self, trained_s1):
        scenario, trained = trained_s1
        config = _config(faults="heavy")
        a = run_policy(scenario, "balb", config, trained)
        b = run_policy(scenario, "balb", config, trained)
        assert _deterministic_metrics(a) == _deterministic_metrics(b)
        for fa, fb in zip(a.frames, b.frames):
            assert fa.inference_ms == fb.inference_ms
            assert fa.detected_gt == fb.detected_gt
            assert fa.coverage_lost == fb.coverage_lost

    def test_faults_disabled_matches_plain_run_exactly(self, trained_s1,
                                                       fault_free):
        scenario, trained = trained_s1
        for disabled in (None, "", "rand:"):
            result = run_policy(
                scenario, "balb", _config(faults=disabled), trained
            )
            assert result.object_recall() == fault_free.object_recall()
            assert result.mean_slowest_latency() == pytest.approx(
                fault_free.mean_slowest_latency(), rel=1e-12
            )
            assert _deterministic_metrics(result) == _deterministic_metrics(
                fault_free
            )


# -- Golden faulted trace --------------------------------------------------
#
# Crash camera 1 and partition camera 2 at frame 12 for 10 frames. The
# forced key frame at 12 must show: both fault events, four surviving
# camera key-frames (camera 1 down), and a comm phase where camera 2's
# round trip exhausts its three attempts as net.retry spans while the
# other three cameras exchange cleanly.

FAULTED_SPEC = "crash:cam=1,at=12,for=10;partition:cam=2,at=12,for=10"

_KEY_CAMERA_TREE = (
    "camera.key_frame",
    (
        ("gpu.full_frame", ()),
        ("camera.detect", ()),
        ("camera.track_refresh", ()),
    ),
)

GOLDEN_FAILOVER_KEY_FRAME = (
    (
        "frame",
        (
            ("fault.camera_crash", ()),
            ("fault.partition", ()),
            ("sim.advance", ()),
            (
                "central_stage",
                tuple([_KEY_CAMERA_TREE] * (N_CAMERAS - 1))
                + (
                    (
                        "scheduler.schedule",
                        (
                            ("scheduler.associate", ()),
                            ("scheduler.solve", (("balb.central", ()),)),
                            (
                                "scheduler.comm",
                                (
                                    ("net.round_trip", ()),
                                    (
                                        "net.round_trip",
                                        (
                                            ("net.retry", ()),
                                            ("net.retry", ()),
                                            ("net.retry", ()),
                                        ),
                                    ),
                                    ("net.round_trip", ()),
                                    ("net.round_trip", ()),
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    ),
)


@pytest.fixture(scope="module")
def faulted_trace(trained_s1):
    scenario, trained = trained_s1
    config = _config(faults=FAULTED_SPEC, trace=True)
    return run_policy(scenario, "balb", config, trained)


def _subtree(spans, root):
    ids = {root.span_id}
    out = []
    for s in spans:
        if s.span_id == root.span_id or s.parent_id in ids:
            ids.add(s.span_id)
            out.append(s)
    return out


class TestGoldenFaultedTrace:
    def test_forced_key_frames_are_tagged(self, faulted_trace):
        forced = [s for s in faulted_trace.spans
                  if s.name == "frame" and s.tags.get("forced")]
        assert [s.tags["frame"] for s in forced] == [12, 22]
        assert all(s.tags["key"] for s in forced)

    def test_failover_key_frame_matches_golden_tree(self, faulted_trace):
        spans = faulted_trace.spans
        root = next(
            s for s in spans
            if s.name == "frame" and s.tags.get("frame") == 12
        )
        assert (
            span_tree_signature(_subtree(spans, root))
            == GOLDEN_FAILOVER_KEY_FRAME
        )

    def test_same_seed_faulted_traces_are_identical(self, faulted_trace,
                                                    trained_s1):
        scenario, trained = trained_s1
        config = _config(faults=FAULTED_SPEC, trace=True)
        rerun = run_policy(scenario, "balb", config, trained)
        assert span_tree_signature(rerun.spans) == span_tree_signature(
            faulted_trace.spans
        )
