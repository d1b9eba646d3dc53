"""Fleet-health defense wired into the pipeline, end to end.

Acceptance criteria on the golden S1/seed-0 configuration:

* a scripted sensor freeze quarantines the camera within a bounded
  number of frames, re-fits membership over the survivors, and readmits
  the camera through probation once the fault clears — with the R1-R6
  invariant monitor armed the whole way;
* an *armed* watchdog whose fault schedule never fires produces frame
  records identical to the fault-free run (the defense draws no RNG and
  never spuriously quarantines a healthy fleet);
* same-seed defended runs are bit-identical.
"""

import pickle

import pytest

from repro.runtime.health import HealthConfig
from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.scenarios.aic21 import get_scenario

FREEZE_AT = 5
FREEZE_FOR = 12
FREEZE_SPEC = f"freeze:cam=1,at={FREEZE_AT},for={FREEZE_FOR}"
#: Same schedule shape, but the window opens long after the run ends —
#: the watchdog arms, the fault never fires.
NEVER_SPEC = "freeze:cam=1,at=9999,for=5"


def _config(**overrides):
    base = dict(
        policy="balb",
        horizon=5,
        n_horizons=8,
        warmup_s=15.0,
        train_duration_s=40.0,
        seed=0,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _counter_sum(result, name):
    return sum(
        m["value"] for m in result.metrics
        if m["kind"] == "counter" and m["name"] == name
    )


@pytest.fixture(scope="module")
def trained_s1():
    scenario = get_scenario("S1", seed=0)
    return scenario, train_models(scenario, _config())


@pytest.fixture(scope="module")
def clean_run(trained_s1):
    scenario, trained = trained_s1
    return run_policy(scenario, "balb", _config(), trained)


@pytest.fixture(scope="module")
def freeze_run(trained_s1):
    scenario, trained = trained_s1
    return run_policy(
        scenario, "balb",
        _config(faults=FREEZE_SPEC, trace=True),
        trained,
    )


def _health_frames(result):
    """Map health.* span name -> frames it fired on (via the span tree)."""
    by_id = {s.span_id: s for s in result.spans}

    def frame_of(span):
        node = span
        while node is not None and node.name != "frame":
            node = by_id.get(node.parent_id)
        assert node is not None, f"health span {span.name} outside a frame"
        return node.tags["frame"]

    frames = {}
    for span in result.spans:
        if span.name.startswith("health."):
            frames.setdefault(span.name, []).append(frame_of(span))
    return frames


class TestFreezeLifecycle:
    def test_run_completes_all_horizons(self, freeze_run):
        assert freeze_run.n_frames == 40

    def test_full_lifecycle_fires_exactly_once(self, freeze_run):
        assert _counter_sum(freeze_run, "health_suspects_total") == 1
        assert _counter_sum(freeze_run, "health_quarantines_total") == 1
        assert _counter_sum(freeze_run, "health_probations_total") == 1
        assert _counter_sum(freeze_run, "health_readmissions_total") == 1
        assert _counter_sum(freeze_run, "sensor_frozen_frames_total") == (
            FREEZE_FOR
        )

    def test_every_membership_change_refits(self, freeze_run):
        # Quarantine, probation entry, readmission: three membership
        # epochs, each re-fitting masks + candidate set over survivors.
        assert _counter_sum(freeze_run, "membership_refits_total") == 3
        (epoch,) = [
            m["value"] for m in freeze_run.metrics
            if m["name"] == "membership_epoch"
        ]
        assert epoch == 3

    def test_quarantine_lands_within_bounded_frames(self, freeze_run):
        cfg = HealthConfig()
        frames = _health_frames(freeze_run)
        (quarantine_frame,) = frames["health.quarantined"]
        # Token repetition is observable from the *second* frozen frame;
        # the streak thresholds bound the reaction from there.
        deadline = (
            FREEZE_AT + 1 + cfg.suspect_after + cfg.quarantine_after
        )
        assert FREEZE_AT < quarantine_frame <= deadline

    def test_readmission_follows_probation_after_fault_clears(
        self, freeze_run
    ):
        frames = _health_frames(freeze_run)
        (quarantine_frame,) = frames["health.quarantined"]
        (probation_frame,) = frames["health.probation"]
        (active_frame,) = frames["health.active"]
        assert quarantine_frame < probation_frame < active_frame
        assert probation_frame >= FREEZE_AT + FREEZE_FOR
        # Refit fires on the same frames as the membership edges.
        assert sorted(frames["health.refit"]) == sorted(
            [quarantine_frame, probation_frame, active_frame]
        )

    def test_quarantined_camera_is_fenced_then_restored(self, freeze_run):
        frames = _health_frames(freeze_run)
        (quarantine_frame,) = frames["health.quarantined"]
        (probation_frame,) = frames["health.probation"]
        # Transitions computed at the end of frame N take effect N+1.
        for record in freeze_run.frames:
            if quarantine_frame < record.frame_index <= probation_frame:
                assert 1 not in record.inference_ms  # R5: no work issued
        assert 1 in freeze_run.frames[-1].inference_ms  # readmitted

    def test_recall_survives_the_freeze(self, freeze_run, clean_run):
        assert freeze_run.object_recall() >= 0.85
        assert freeze_run.object_recall() >= (
            clean_run.object_recall() - 0.1
        )


class TestDefenseIsolation:
    def test_armed_watchdog_without_faults_changes_nothing(
        self, trained_s1, clean_run
    ):
        scenario, trained = trained_s1
        armed = run_policy(
            scenario, "balb", _config(faults=NEVER_SPEC), trained
        )
        # The watchdog ran every frame (scores exported) ...
        assert any(m["name"] == "health_score" for m in armed.metrics)
        # ... saw a healthy fleet ...
        assert _counter_sum(armed, "health_quarantines_total") == 0
        assert _counter_sum(armed, "health_suspects_total") == 0
        # ... and perturbed nothing: frame-for-frame identical results.
        assert pickle.dumps(armed.frames) == pickle.dumps(clean_run.frames)


class TestDeterminism:
    def test_same_seed_defended_runs_are_identical(self, trained_s1,
                                                   freeze_run):
        scenario, trained = trained_s1
        again = run_policy(
            scenario, "balb",
            _config(faults=FREEZE_SPEC, trace=True),
            trained,
        )
        assert pickle.dumps(again.frames) == pickle.dumps(freeze_run.frames)
        strip = lambda r: [
            m for m in r.metrics if m["name"] != "frame_wall_ms"
        ]
        assert strip(again) == strip(freeze_run)
