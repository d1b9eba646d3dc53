"""Crash-consistent checkpoint/resume: atomicity, digests, bit-identity."""

import os
import pickle
import re

import pytest

from repro.association.pairwise import PairwiseAssociator
from repro.association.training import AssociationDataset
from repro.checkpoint import (
    ENTRY_MAGIC,
    MAGIC,
    CheckpointError,
    RunCheckpoint,
    load_checkpoint,
    save_checkpoint,
)
from repro.framed import read_framed, write_framed
from repro.geometry.box import BBox, corner_array
from repro.runtime.pipeline import (
    Pipeline,
    PipelineConfig,
    TrainedModels,
    train_models,
)
from repro.runtime.trajectory import share_worlds
from repro.scenarios.aic21 import scenario_s1
from tests.association.search_counts import count_shared_calls, shared_calls


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
            match=r"v2\.ckpt.*repro-checkpoint-v2.*repro-checkpoint-v5 only",
        ):
            load_checkpoint(path)

    def test_v3_inline_models_refused_naming_the_file(self, tmp_path):
        """A v3 file is refused: it holds the trained models inline, where
        a v4 state refers to its models entry."""
        import hashlib

        path = str(tmp_path / "v3.ckpt")
        payload = pickle.dumps(RunCheckpoint("s", "c", "t", "state"))
        digest = hashlib.sha256(payload).hexdigest().encode()
        with open(path, "wb") as fh:
            fh.write(b"repro-checkpoint-v3\n" + digest + b"\n" + payload)
        with pytest.raises(
            CheckpointError,
            match=r"v3\.ckpt.*repro-checkpoint-v3.*repro-checkpoint-v5 only",
        ):
            load_checkpoint(path)

    def test_v4_world_history_refused_naming_the_file(self, tmp_path):
        """A v4 file is refused: its run state holds the world and a
        snapshot history, where a v5 state holds a world trajectory."""
        import hashlib

        path = str(tmp_path / "v4.ckpt")
        payload = pickle.dumps(RunCheckpoint("s", "c", "t", "state"))
        digest = hashlib.sha256(payload).hexdigest().encode()
        with open(path, "wb") as fh:
            fh.write(b"repro-checkpoint-v4\n" + digest + b"\n" + payload)
        with pytest.raises(
            CheckpointError,
            match=r"v4\.ckpt.*repro-checkpoint-v4.*repro-checkpoint-v5 only",
        ):
            load_checkpoint(path)

    def test_write_is_atomic_no_temp_left_behind(self, tmp_path):
        path = str(tmp_path / "a.ckpt")
        save_checkpoint(path, RunCheckpoint("s", "c", "t", "state"))
        save_checkpoint(path, RunCheckpoint("s", "c", "t", "state2"))
        names = sorted(os.listdir(tmp_path))
        assert len(names) == 2 and names[0] == "a.ckpt"
        assert names[1].startswith("models-") and names[1].endswith(".pkl")
        assert load_checkpoint(path).state == "state2"


def entries(directory):
    return sorted(directory.glob("models-*.pkl"))


def tiny_models():
    return TrainedModels(
        associator=None, typical_box_sizes={0: 60.0}, profiles={}
    )


def shifted_dataset(shift):
    """One camera pair whose target boxes sit ``shift`` px right."""
    dataset = AssociationDataset()
    for i in range(30):
        box = BBox.from_xywh(20.0 * i, 100.0, 40.0, 30.0)
        dataset.pair(0, 1).add(box, box.translate(shift, 0.0))
    return dataset


class TestModelsEntry:
    """The trained models live in one content-addressed entry per directory."""

    @pytest.fixture
    def saved(self, tmp_path):
        path = str(tmp_path / "run.ckpt")
        save_checkpoint(path, RunCheckpoint("s", "c", tiny_models(), "state"))
        (entry,) = entries(tmp_path)
        return path, str(entry)

    def test_state_refers_to_its_entry(self, saved):
        path, entry = saved
        digest, payload = read_framed(entry, ENTRY_MAGIC)
        assert os.path.basename(entry) == f"models-{digest}.pkl"
        assert pickle.loads(payload) == tiny_models()
        assert load_checkpoint(path).trained == tiny_models()
        # The state holds a reference, not the models' fields.
        assert b"typical_box_sizes" in payload
        assert b"typical_box_sizes" not in open(path, "rb").read()

    def test_missing_entry_is_named(self, saved):
        path, entry = saved
        os.unlink(entry)
        with pytest.raises(CheckpointError, match=rf"cannot read.*{re.escape(entry)}"):
            load_checkpoint(path)

    def test_truncated_entry_is_named(self, saved):
        path, entry = saved
        with open(entry, "r+b") as fh:
            fh.truncate(os.path.getsize(entry) - 3)
        with pytest.raises(CheckpointError, match=rf"{re.escape(entry)}.*digest mismatch"):
            load_checkpoint(path)

    def test_entry_that_does_not_hash_to_its_name_is_named(self, saved):
        path, entry = saved
        other = TrainedModels(None, {0: 61.0}, {})
        write_framed(entry, ENTRY_MAGIC, pickle.dumps(other))
        with pytest.raises(
            CheckpointError,
            match=rf"{re.escape(entry)}.*does not hash to its name",
        ):
            load_checkpoint(path)

    def test_entry_with_wrong_magic_is_named(self, saved):
        path, entry = saved
        blob = bytearray(open(entry, "rb").read())
        blob[0] ^= 0xFF
        with open(entry, "wb") as fh:
            fh.write(bytes(blob))
        with pytest.raises(CheckpointError, match=rf"{re.escape(entry)}.*bad magic"):
            load_checkpoint(path)

    def test_load_shares_one_associator(self, shared, tmp_path):
        scenario, trained = shared
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_path=path, stop_after_frames=7)
        Pipeline(scenario, cfg, trained=trained).run()
        ckpt = load_checkpoint(path)
        assert ckpt.state.scheduler.matcher.associator is ckpt.trained.associator
        assert ckpt.state.scheduler._associator is ckpt.trained.associator
        assert ckpt.trained.associator is not trained.associator

    def test_saves_into_one_directory_write_one_entry(
        self, shared, tmp_path, monkeypatch
    ):
        scenario, trained = shared
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_path=path, checkpoint_every=5)
        Pipeline(scenario, cfg, trained=trained).run()
        (entry,) = entries(tmp_path)
        before = os.stat(entry)
        # The models pickle at most once per object and process: neither
        # more saves nor a resume, which loads them, pickles them again.
        models_pickled = []
        real_dumps = pickle.dumps

        def dumps(obj, *args, **kwargs):
            if isinstance(obj, TrainedModels):
                models_pickled.append(obj)
            return real_dumps(obj, *args, **kwargs)

        monkeypatch.setattr(pickle, "dumps", dumps)
        cut = small_config(
            checkpoint_path=str(tmp_path / "cut.ckpt"), checkpoint_every=5,
            stop_after_frames=12,
        )
        Pipeline(scenario, cut, trained=trained).run()
        assert load_checkpoint(cut.checkpoint_path).resume().n_frames == 40
        assert models_pickled == []
        assert entries(tmp_path) == [entry]
        after = os.stat(entry)
        assert (after.st_ino, after.st_mtime_ns) == (
            before.st_ino, before.st_mtime_ns
        )

    def test_save_after_a_refit_writes_a_new_entry(self, tmp_path):
        associator = PairwiseAssociator().fit(shifted_dataset(40.0))
        trained = TrainedModels(associator, {0: 60.0, 1: 60.0}, {})
        path = str(tmp_path / "run.ckpt")
        corners = corner_array([BBox.from_xywh(200.0, 100.0, 40.0, 30.0)])

        def predicted(assoc):
            idx, boxes = assoc.model(0, 1).predict_visible_boxes(corners)
            return idx.tolist(), boxes.tolist()

        save_checkpoint(path, RunCheckpoint("s", "c", trained, "state"))
        first = predicted(load_checkpoint(path).trained.associator)
        associator.fit(shifted_dataset(90.0))
        save_checkpoint(path, RunCheckpoint("s", "c", trained, "state"))
        assert len(entries(tmp_path)) == 2
        refit = predicted(load_checkpoint(path).trained.associator)
        assert first[0] == refit[0] == [0]
        assert refit == predicted(associator) != first


class TestModelsDoNotChangeWhileTheyRun:
    def test_pickle_is_equal_before_and_after_runs(self, shared, monkeypatch):
        """A content-addressed entry needs models that runs leave alone."""
        scenario, trained = shared
        count_shared_calls(monkeypatch)
        before = pickle.dumps(trained, protocol=pickle.HIGHEST_PROTOCOL)
        Pipeline(scenario, small_config(), trained=trained).run()
        after_run = pickle.dumps(trained, protocol=pickle.HIGHEST_PROTOCOL)
        faults = "crash:cam=1,at=5,for=10;loss:p=0.2"
        Pipeline(scenario, small_config(faults=faults), trained=trained).run()
        after_faults = pickle.dumps(trained, protocol=pickle.HIGHEST_PROTOCOL)
        assert shared_calls(trained.associator)["certified"] > 0
        assert before == after_run == after_faults


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

        resumed = load_checkpoint(path).resume()
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
        resumed = load_checkpoint(path).resume()
        assert_bit_identical(full, resumed)

    def test_lagged_run_resumes_inside_drift_and_freeze(
        self, shared, tmp_path
    ):
        # Cut while cameras read older frames and one camera is frozen:
        # the kept frames and the frozen capture must survive the pickle.
        scenario, trained = shared
        knobs = dict(
            max_camera_lag_frames=2,
            occlusion=True,
            faults="freeze:cam=1,at=10,for=8;drift:cam=2,rate=0.5,at=5,for=20",
        )
        full = Pipeline(
            scenario, small_config(**knobs), trained=trained
        ).run()
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(
            checkpoint_path=path, stop_after_frames=14, **knobs
        )
        Pipeline(scenario, cfg, trained=trained).run()
        assert_bit_identical(full, load_checkpoint(path).resume())

    def test_checkpointing_run_in_a_sharing_scope_keeps_its_own_world(
        self, shared, tmp_path
    ):
        scenario, trained = shared
        full = Pipeline(scenario, small_config(), trained=trained).run()
        path = str(tmp_path / "run.ckpt")
        cfg = small_config(checkpoint_path=path, stop_after_frames=17)
        with share_worlds():
            Pipeline(scenario, small_config(), trained=trained).run()
            Pipeline(scenario, cfg, trained=trained).run()
        assert_bit_identical(full, load_checkpoint(path).resume())

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
        tail = load_checkpoint(path).resume()
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
            assert_bit_identical(full, load_checkpoint(path).resume())


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
            assert_bit_identical(full, load_checkpoint(path).resume())

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
        resumed = load_checkpoint(path).resume()
        assert_bit_identical(full, resumed)

        def serving(result):
            return [m for m in result.metrics if m["name"].startswith("serving_")]

        assert serving(resumed) == serving(full)
        requests = next(
            m["value"] for m in serving(full)
            if m["name"] == "serving_requests_total"
        )
        assert requests == 1000 * full.n_frames
