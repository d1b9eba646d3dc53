"""Crash-consistent checkpoint/resume: atomicity, digests, bit-identity."""

import os
import pickle

import pytest

from repro.checkpoint import (
    MAGIC,
    CheckpointError,
    RunCheckpoint,
    load_checkpoint,
    resume_run,
    save_checkpoint,
)
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


def strip_wall(metrics):
    """Everything in the export except host-wall-clock observations."""
    return [m for m in metrics if m["name"] != "frame_wall_ms"]


def assert_bit_identical(full, resumed):
    assert len(full.frames) == len(resumed.frames)
    for a, b in zip(full.frames, resumed.frames):
        assert a.__dict__ == b.__dict__
    assert strip_wall(full.metrics) == strip_wall(resumed.metrics)
    assert full.object_recall() == resumed.object_recall()
    assert full.mean_slowest_latency() == resumed.mean_slowest_latency()


class TestCheckpointFile:
    def test_roundtrip(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        ckpt = RunCheckpoint(scenario="s", config="c", trained="t",
                             state="state")
        save_checkpoint(path, ckpt)
        loaded = load_checkpoint(path)
        assert loaded.state == "state"

    def test_missing_file(self, tmp_path):
        with pytest.raises(CheckpointError, match="cannot read"):
            load_checkpoint(str(tmp_path / "nope.ckpt"))

    def test_bad_magic(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        with open(path, "wb") as fh:
            fh.write(b"not a checkpoint")
        with pytest.raises(CheckpointError, match="bad magic"):
            load_checkpoint(path)

    def test_truncated_payload_fails_digest(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, RunCheckpoint("s", "c", "t", "state"))
        blob = open(path, "rb").read()
        with open(path, "wb") as fh:
            fh.write(blob[:-3])
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(path)

    def test_flipped_byte_fails_digest(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, RunCheckpoint("s", "c", "t", "state"))
        blob = bytearray(open(path, "rb").read())
        blob[-1] ^= 0xFF
        with open(path, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match="digest mismatch"):
            load_checkpoint(path)

    def test_wrong_payload_type(self, tmp_path):
        import hashlib

        path = str(tmp_path / "a.ckpt")
        payload = pickle.dumps({"not": "a RunCheckpoint"})
        digest = hashlib.sha256(payload).hexdigest().encode()
        with open(path, "wb") as fh:
            fh.write(MAGIC + digest + b"\n" + payload)
        with pytest.raises(CheckpointError, match="unexpected payload"):
            load_checkpoint(path)

    def test_older_format_refused_naming_the_file(self, tmp_path):
        """A v1 file is refused: its fault-free states hold faults=None,
        which the one fault path cannot resume."""
        import hashlib

        path = str(tmp_path / "old.ckpt")
        payload = pickle.dumps(RunCheckpoint("s", "c", "t", "state"))
        digest = hashlib.sha256(payload).hexdigest().encode()
        with open(path, "wb") as fh:
            fh.write(b"repro-checkpoint-v1\n" + digest + b"\n" + payload)
        with pytest.raises(
            CheckpointError, match=r"old\.ckpt.*repro-checkpoint-v1"
        ):
            load_checkpoint(path)

    def test_v2_node_layout_refused_naming_the_file(self, tmp_path):
        """A v2 file is refused: its camera nodes hold three track dicts,
        which the track-table node cannot resume from."""
        import hashlib

        path = str(tmp_path / "v2.ckpt")
        payload = pickle.dumps(RunCheckpoint("s", "c", "t", "state"))
        digest = hashlib.sha256(payload).hexdigest().encode()
        with open(path, "wb") as fh:
            fh.write(b"repro-checkpoint-v2\n" + digest + b"\n" + payload)
        with pytest.raises(
            CheckpointError,
            match=r"v2\.ckpt.*repro-checkpoint-v2.*repro-checkpoint-v3 only",
        ):
            load_checkpoint(path)

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, RunCheckpoint("s", "c", "t", "state"))
        save_checkpoint(path, RunCheckpoint("s", "c", "t", "state2"))
        assert os.listdir(tmp_path) == ["a.ckpt"]
        assert load_checkpoint(path).state == "state2"


class TestConfigValidation:
    def test_checkpoint_knobs_need_path(self):
        with pytest.raises(ValueError):
            small_config(checkpoint_every=5)
        with pytest.raises(ValueError):
            small_config(stop_after_frames=5)
        with pytest.raises(ValueError):
            small_config(checkpoint_path="x", stop_after_frames=0)
        small_config(checkpoint_path="x", checkpoint_every=5)  # fine


class TestResumeBitIdentity:
    def test_resume_matches_uninterrupted_run(self, shared, tmp_path):
        scenario, trained = shared
        full = Pipeline(scenario, small_config(), trained=trained).run()

        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_path=path, stop_after_frames=17)
        partial = Pipeline(scenario, cfg, trained=trained).run()
        assert partial.n_frames == 17
        assert os.path.exists(path)

        resumed = resume_run(path)
        assert_bit_identical(full, resumed)

    def test_resume_mid_fault_window(self, shared, tmp_path):
        # Interrupt inside a scheduler outage, before the takeover fires:
        # the lease/fault state must survive the pickle roundtrip exactly.
        scenario, trained = shared
        spec = (
            "sched_crash:at=13,for=10;crash:cam=2,at=20,for=6;"
            "loss:p=0.2,at=5,for=25"
        )
        full = Pipeline(
            scenario, small_config(faults=spec, seed=3), trained=trained
        ).run()
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(
            faults=spec, seed=3, checkpoint_path=path, stop_after_frames=14
        )
        Pipeline(scenario, cfg, trained=trained).run()
        resumed = resume_run(path)
        assert_bit_identical(full, resumed)

    def test_periodic_checkpoints_do_not_perturb_the_run(
        self, shared, tmp_path
    ):
        scenario, trained = shared
        full = Pipeline(scenario, small_config(), trained=trained).run()
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_path=path, checkpoint_every=10)
        checkpointed = Pipeline(scenario, cfg, trained=trained).run()
        assert_bit_identical(full, checkpointed)
        # the final periodic snapshot (frame 40) is resumable as a no-op
        ckpt = load_checkpoint(path)
        assert ckpt.next_frame == 40
        tail = resume_run(path)
        assert_bit_identical(full, tail)

    def test_resume_at_different_cut_points_all_agree(
        self, shared, tmp_path
    ):
        scenario, trained = shared
        full = Pipeline(scenario, small_config(seed=2), trained=trained).run()
        for stop in (1, 20, 39):
            path = str(tmp_path / f"run{stop}.ckpt")
            cfg = small_config(
                seed=2, checkpoint_path=path, stop_after_frames=stop
            )
            Pipeline(scenario, cfg, trained=trained).run()
            assert_bit_identical(full, resume_run(path))


BURST_POLICIES = (
    "drop-oldest", "degrade-to-distributed", "coalesce-to-key-frame"
)


@pytest.fixture(scope="module")
def burst_setup():
    """The S1 ``ingest`` preset on a short run: 20 frames, capacity 2."""
    scenario = scenario_s1()
    config = small_config(
        n_horizons=4, warmup_s=5.0, train_duration_s=20.0,
        faults="ingest", ingest_capacity=2,
    )
    return scenario, config, train_models(scenario, config)


class TestEdgesResume:
    """Both edges live on the run state, so their runs resume too."""

    @pytest.mark.parametrize("ingest_policy", BURST_POLICIES)
    def test_burst_run_resumes_at_every_cut_point(
        self, burst_setup, tmp_path, ingest_policy
    ):
        scenario, base, trained = burst_setup
        config = PipelineConfig(
            **{**base.__dict__, "ingest_policy": ingest_policy}
        )
        full = Pipeline(scenario, config, trained=trained).run()
        assert any(
            m["name"] == "ingest_stalled_frames_total" for m in full.metrics
        )
        path = str(tmp_path / "run.ckpt")
        for stop in range(1, full.n_frames):
            cfg = PipelineConfig(**{
                **config.__dict__, "checkpoint_path": path,
                "stop_after_frames": stop,
            })
            assert Pipeline(scenario, cfg, trained=trained).run().n_frames == stop
            assert_bit_identical(full, resume_run(path))

    def test_serving_run_resumes_between_publications(
        self, shared, tmp_path
    ):
        scenario, trained = shared
        serve = dict(serve_subscribers=1000, serve_every=3)
        full = Pipeline(
            scenario, small_config(**serve), trained=trained
        ).run()
        path = str(tmp_path / "run.ckpt")
        # Frame 17 publishes nothing: the resumed run serves the
        # checkpointed snapshot first.
        cfg = small_config(**serve, checkpoint_path=path, stop_after_frames=17)
        Pipeline(scenario, cfg, trained=trained).run()
        resumed = resume_run(path)
        assert_bit_identical(full, resumed)

        def serving(result):
            return [m for m in result.metrics if m["name"].startswith("serving_")]

        assert serving(resumed) == serving(full)
        requests = next(
            m["value"] for m in serving(full)
            if m["name"] == "serving_requests_total"
        )
        assert requests == 1000 * full.n_frames
