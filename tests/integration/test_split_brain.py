"""Partition-tolerant control plane, end to end.

The scripted scenario: a scheduler partition cuts cameras 1 and 2 off
from the primary for 8 frames, a standby on the cut side takes over,
then the cut heals and the deposed side's in-flight authority claim must
die. Under the legacy protocol (``epoch_fencing=False``) both sides keep
issuing at epoch 0 — split-brain, which the always-on invariant monitor
catches as an R1 violation. Under epoch fencing the same fault schedule
runs to completion: every leadership change bumped the epoch, the heal
re-broadcast at the old epoch bounces off the cut-side guards, and the
fleet reunites under a fresh epoch.
"""

import pytest

from repro.runtime.invariants import InvariantViolation
from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import scenario_s1

PARTITION = "sched_partition:cam=1,at=10,for=8;sched_partition:cam=2,at=10,for=8"


def small_config(**kwargs):
    defaults = dict(
        policy="balb",
        horizon=5,
        n_horizons=8,
        warmup_s=15.0,
        train_duration_s=40.0,
        seed=0,
    )
    defaults.update(kwargs)
    return PipelineConfig(**defaults)


@pytest.fixture(scope="module")
def shared():
    scenario = scenario_s1()
    trained = train_models(scenario, small_config())
    return scenario, trained


def counter_sum(result, name):
    return int(sum(
        m["value"] for m in result.metrics
        if m["kind"] == "counter" and m["name"] == name
    ))


class TestSplitBrain:
    def test_legacy_protocol_exhibits_split_brain(self, shared):
        scenario, trained = shared
        config = small_config(faults=PARTITION, epoch_fencing=False)
        with pytest.raises(InvariantViolation, match="R1 split-brain"):
            Pipeline(scenario, config, trained=trained).run()

    def test_epoch_fencing_survives_the_same_schedule(self, shared):
        scenario, trained = shared
        config = small_config(faults=PARTITION, trace=True)
        result = Pipeline(scenario, config, trained=trained).run()
        assert result.n_frames == 40
        # One cut-side takeover, one reunite after the heal.
        assert counter_sum(result, "failover_split_takeovers_total") == 1
        assert counter_sum(result, "failover_reunites_total") == 1
        # The deposed claim bounced off every cut-side camera's guard.
        assert counter_sum(result, "failover_fenced_total") == 2
        fenced = [s for s in result.spans if s.name == "wire.fenced"]
        assert {s.tags["camera"] for s in fenced} == {1, 2}
        assert all(s.tags["epoch"] == 0 for s in fenced)

    def test_epochs_are_strictly_ordered_across_transitions(self, shared):
        scenario, trained = shared
        config = small_config(faults=PARTITION, trace=True)
        result = Pipeline(scenario, config, trained=trained).run()
        split = next(
            s for s in result.spans if s.name == "failover.split_takeover"
        )
        reunite = next(
            s for s in result.spans if s.name == "failover.reunite"
        )
        assert split.tags["frame"] < reunite.tags["frame"]
        # The reunite term supersedes the cut-side term.
        assert 0 < split.tags["epoch"] < reunite.tags["epoch"]

    def test_fenced_run_is_deterministic(self, shared):
        scenario, trained = shared
        config = small_config(faults=PARTITION)
        a = Pipeline(scenario, config, trained=trained).run()
        b = Pipeline(scenario, config, trained=trained).run()
        assert a.object_recall() == b.object_recall()
        assert [f.inference_ms for f in a.frames] == (
            [f.inference_ms for f in b.frames]
        )
        assert [f.overheads_ms for f in a.frames] == (
            [f.overheads_ms for f in b.frames]
        )

    def test_partition_recovery_is_degradation_not_failure(self, shared):
        scenario, trained = shared
        config = small_config(faults=PARTITION)
        faulted = Pipeline(scenario, config, trained=trained).run()
        clean = Pipeline(
            scenario, small_config(), trained=trained
        ).run()
        # The cut costs some recall but the run stays close to clean.
        assert faulted.object_recall() >= clean.object_recall() - 0.1
