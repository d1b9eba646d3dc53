"""End-to-end scheduler failover: takeover timing, metrics, degradation."""

import pytest

from repro.obs.registry import MetricsRegistry
from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import scenario_s1


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


def recovery_histogram(result):
    return next(
        (m for m in result.metrics
         if m["kind"] == "histogram" and m["name"] == "failover_recovery_ms"),
        None,
    )


class TestFailover:
    def test_takeover_within_one_heartbeat_interval(self, shared):
        scenario, trained = shared
        config = small_config(faults="sched_crash:at=12,for=10", trace=True)
        result = Pipeline(scenario, config, trained=trained).run()
        assert result.n_frames == 40  # the run survives the outage
        takeover = next(
            s for s in result.spans if s.name == "failover.takeover"
        )
        crash_frame = 12
        assert takeover.tags["frame"] - crash_frame <= (
            config.failover_heartbeat_frames
        )
        assert counter_sum(result, "failover_takeovers_total") == 1
        assert counter_sum(result, "failover_handbacks_total") == 1
        hist = recovery_histogram(result)
        assert hist is not None and hist["count"] == 1
        # recovery = detection frames + modeled takeover cost, well under
        # two heartbeat intervals of wall time at 10 fps
        assert 0 < hist["mean"] < 2 * config.failover_heartbeat_frames * 100 + 100

    def test_replication_rides_assignment_downloads(self, shared):
        scenario, trained = shared
        config = small_config(faults="sched_crash:at=12,for=10", trace=True)
        result = Pipeline(scenario, config, trained=trained).run()
        replications = [
            s for s in result.spans if s.name == "failover.replicate"
        ]
        assert replications
        assert all(s.tags["bytes"] > 0 for s in replications)
        assert counter_sum(result, "failover_replications_total") == len(
            [s for s in replications if s.tags["delivered"]]
        )
        takeover = next(
            s for s in result.spans if s.name == "failover.takeover"
        )
        # the standby restored from a replica taken before the crash
        assert 0 <= takeover.tags["replica_frame"] < 12

    def test_long_heartbeat_skips_key_frames(self, shared):
        scenario, trained = shared
        config = small_config(
            faults="sched_crash:at=8,for=12", failover_heartbeat_frames=7
        )
        result = Pipeline(scenario, config, trained=trained).run()
        assert counter_sum(result, "skipped_key_frames_total") >= 1
        keys = [r.frame_index for r in result.frames if r.is_key_frame]
        assert 10 not in keys  # the scheduled key inside the outage

    def test_failover_cost_charged_to_transition_frames(self, shared):
        scenario, trained = shared
        config = small_config(faults="sched_crash:at=13,for=10")
        result = Pipeline(scenario, config, trained=trained).run()
        charged = [
            r for r in result.frames if "failover" in r.overheads_ms
        ]
        assert len(charged) == 2  # one takeover + one handback
        assert all(r.overheads_ms["failover"] > 0 for r in charged)

    def test_recovery_grows_with_heartbeat_interval(self, shared):
        scenario, trained = shared
        means = []
        for hb in (2, 10):
            config = small_config(
                faults="sched_crash:at=12,for=15",
                failover_heartbeat_frames=hb,
            )
            result = Pipeline(scenario, config, trained=trained).run()
            means.append(recovery_histogram(result)["mean"])
        assert means[0] < means[1]

    def test_run_completes_under_stochastic_scheduler_chaos(self, shared):
        scenario, trained = shared
        config = small_config(faults="scheduler", seed=1)
        result = Pipeline(scenario, config, trained=trained).run()
        assert result.n_frames == 40
        assert result.object_recall() > 0.5

    def test_sp_policy_survives_scheduler_outage(self, shared):
        scenario, trained = shared
        config = small_config(
            policy="sp", faults="sched_crash:at=12,for=10"
        )
        result = Pipeline(scenario, config, trained=trained).run()
        assert result.n_frames == 40
        assert counter_sum(result, "failover_takeovers_total") == 1

    def test_scheduler_faults_do_not_disturb_clean_policies(self, shared):
        # balb-ind has no central scheduler: a scheduler outage is a no-op
        scenario, trained = shared
        clean = Pipeline(
            scenario, small_config(policy="balb-ind"), trained=trained
        ).run()
        faulted = Pipeline(
            scenario,
            small_config(policy="balb-ind", faults="sched_crash:at=5,for=10"),
            trained=trained,
        ).run()
        assert clean.object_recall() == faulted.object_recall()
        assert counter_sum(faulted, "failover_takeovers_total") == 0

    def test_identical_to_pre_failover_run_without_scheduler_faults(
        self, shared
    ):
        # Camera-only fault plans must not arm the failover machinery:
        # the run is bit-identical with or without scheduler-fault support
        scenario, trained = shared
        spec = "crash:cam=1,at=12,for=10"
        a = Pipeline(
            scenario, small_config(faults=spec), trained=trained
        ).run()
        b = Pipeline(
            scenario, small_config(faults=spec), trained=trained
        ).run()
        assert [r.__dict__ for r in a.frames] == [
            r.__dict__ for r in b.frames
        ]
        assert counter_sum(a, "scheduler_down_frames_total") == 0


#: A scheduler crash, and the same crash plus a partition clause that
#: starts after the crash has healed.
CRASH = "sched_crash:at=10,for=20"
CRASH_THEN_CUT = CRASH + ";sched_partition:cam=2,at=38,for=2"


class TestReplicationAsymmetry:
    def test_camera_leader_replicates_only_without_partitions(self, shared):
        # Known asymmetry, kept on purpose: a camera-led fleet replicates
        # its checkpoint onward only when the plan has no scheduler
        # partitions, so an unrelated late cut lowers the count. Fixing
        # it changes benchmark reference digests; this test makes such a
        # fix a visible, deliberate change.
        scenario, trained = shared
        counts = [
            counter_sum(
                Pipeline(
                    scenario, small_config(faults=faults), trained=trained
                ).run(),
                "failover_replications_total",
            )
            for faults in (CRASH, CRASH_THEN_CUT)
        ]
        assert counts[0] > counts[1] > 0


def run_keeping_state(scenario, trained, config):
    pipeline = Pipeline(scenario, config, trained=trained)
    state = pipeline._init_state(MetricsRegistry())
    return pipeline.run(state), state


class TestGuardOnCleanChannels:
    @pytest.mark.parametrize("faults", [None, CRASH])
    def test_guard_admits_every_delivered_assignment(self, shared, faults):
        # Every delivered assignment passes its camera's receiver guard.
        # Without wire faults or partitions the guard must admit them all
        # and export nothing.
        scenario, trained = shared
        result, state = run_keeping_state(
            scenario, trained, small_config(faults=faults)
        )
        key_frames = counter_sum(result, "key_frames_total")
        assert key_frames > 0
        assert counter_sum(result, "assignment_fallbacks_total") == 0
        for node in state.nodes.values():
            guard = node.guard
            assert guard.admitted == key_frames
            assert (
                guard.corrupt, guard.duplicates,
                guard.reordered, guard.window_exceeded,
            ) == (0, 0, 0, 0)
        names = {m["name"] for m in result.metrics}
        assert not {n for n in names if n.startswith("wire_")}
        assert "failover_fenced_total" not in names
