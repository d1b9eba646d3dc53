"""Golden regression run: all five policies on S1 with pinned results.

Unlike ``test_end_to_end`` (which asserts the paper's *qualitative* shape),
this module pins the exact numbers and the exact trace structure of one
seeded configuration. Any change to the scheduler, simulator, policies, or
instrumentation that shifts behaviour shows up here first.

If a change is *intentional*, regenerate the golden values by running the
fixture configuration and updating the constants below.
"""

import hashlib
import json

import pytest

from repro.obs.export import read_spans_jsonl, write_spans_jsonl
from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.scenarios.aic21 import get_scenario
from tests.obs.span_tree import span_tree_signature

POLICIES = ("full", "balb-ind", "balb-cen", "balb", "sp")

# Golden values for S1, seed=0, horizon=5, n_horizons=8, warmup_s=20,
# train_duration_s=60 (generated on the reference configuration).
GOLDEN = {
    "full": {"recall": 0.997980, "latency": 688.641818},
    "balb-ind": {"recall": 0.991919, "latency": 345.163701},
    "balb-cen": {"recall": 0.953535, "latency": 138.509524},
    "balb": {"recall": 0.979798, "latency": 140.025011},
    "sp": {"recall": 0.911111, "latency": 141.157876},
}

# BALB on the same configuration with inter-object occlusion, two cameras
# per object and up to two frames of camera skew: pins the occlusion,
# redundancy and lag paths exactly (recall, latency and a sha256 over
# every frame record).
GOLDEN_OCCLUDED = {
    "recall": 0.9797979797979798,
    "latency": 145.04514414940547,
    "frames_sha256": (
        "570d80b60f41dd6d8a79353955abd16a4a3f2557ebe6608784b6dd29939eaab9"
    ),
}

N_CAMERAS = 5


def _config():
    return PipelineConfig(
        policy="balb",
        horizon=5,
        n_horizons=8,
        warmup_s=20.0,
        train_duration_s=60.0,
        seed=0,
        trace=True,
    )


@pytest.fixture(scope="module")
def golden_runs():
    scenario = get_scenario("S1", seed=0)
    config = _config()
    trained = train_models(scenario, config)
    runs = {
        policy: run_policy(scenario, policy, config, trained)
        for policy in POLICIES
    }
    return scenario, config, trained, runs


class TestGoldenNumbers:
    @pytest.mark.parametrize("policy", POLICIES)
    def test_recall_matches_golden(self, golden_runs, policy):
        _, _, _, runs = golden_runs
        assert runs[policy].object_recall() == pytest.approx(
            GOLDEN[policy]["recall"], abs=0.02
        )

    @pytest.mark.parametrize("policy", POLICIES)
    def test_latency_matches_golden(self, golden_runs, policy):
        _, _, _, runs = golden_runs
        assert runs[policy].mean_slowest_latency() == pytest.approx(
            GOLDEN[policy]["latency"], rel=5e-3
        )


def _frames_sha256(frames) -> str:
    h = hashlib.sha256()
    for f in frames:
        h.update(repr((
            f.frame_index, f.is_key_frame, sorted(f.visible_gt),
            sorted(f.detected_gt), sorted(f.inference_ms.items()),
            sorted(f.overheads_ms.items()), sorted(f.n_slices.items()),
            sorted(f.coverage_lost),
        )).encode())
    return h.hexdigest()


class TestGoldenOccludedRedundantLagged:
    def test_balb_matches_golden_exactly(self, golden_runs):
        scenario, config, trained, _ = golden_runs
        occluded = PipelineConfig(**{
            **config.__dict__, "occlusion": True, "redundancy": 2,
            "max_camera_lag_frames": 2,
        })
        result = run_policy(scenario, "balb", occluded, trained)
        assert result.object_recall() == GOLDEN_OCCLUDED["recall"]
        assert result.mean_slowest_latency() == GOLDEN_OCCLUDED["latency"]
        assert _frames_sha256(result.frames) == GOLDEN_OCCLUDED["frames_sha256"]


# The control plane under one seeded fault plan: a scheduler partition
# cuts cameras 1 and 2 (split takeover, fenced heal, reunite), then the
# scheduler crashes (takeover, replication, handback), with corrupt,
# duplicate and reordered messages throughout. Drives one and two acting
# authorities, the epoch fence and the receiver guards. Pins a sha256 over the
# frame records, over the metrics apart from frame_wall_ms, and over the
# span-tree signature. Same plan as .github/golden/s1_balb_control_seed0.out.
CONTROL_FAULTS = (
    "sched_partition:cam=1,at=8,for=8;sched_partition:cam=2,at=8,for=8;"
    "sched_crash:at=22,for=12;corrupt:p=0.1;dup:p=0.1;reorder:p=0.1"
)
GOLDEN_CONTROL = {
    "balb": {
        "frames_sha256": (
            "be0839be7476fae91451bc4deb697b3a23cde8fef09823ae72092d38aafdc33c"
        ),
        "metrics_sha256": (
            "a720941b0f9e52df8dd29269b5e80af31f313d04d1b0ec940184ef9ca48a2b85"
        ),
        "spans_sha256": (
            "02ff8254d1e2cef61e9fe21e98698cc50b6ae3a3db152190fb5d54f1048055a7"
        ),
    },
    "sp": {
        "frames_sha256": (
            "dbc3c900b57adb08457d533938fe70381a5ea86c6d244a0473ac57d556cb2de4"
        ),
        "metrics_sha256": (
            "b9a9dff970a1758748f7ac00468e3bde32d32f5caa7d3de7c9324e9d8756c7bf"
        ),
        "spans_sha256": (
            "d4ebe781ef4066e8a68e93a644960f51d4b2f06713248e7d39725646c9a3c146"
        ),
    },
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestGoldenControlPlane:
    @pytest.mark.parametrize("policy", sorted(GOLDEN_CONTROL))
    def test_control_plane_matches_golden_exactly(self, golden_runs, policy):
        scenario, config, trained, _ = golden_runs
        faulted = PipelineConfig(**{**config.__dict__, "faults": CONTROL_FAULTS})
        result = run_policy(scenario, policy, faulted, trained)
        metrics = [m for m in result.metrics if m["name"] != "frame_wall_ms"]
        assert {
            "frames_sha256": _frames_sha256(result.frames),
            "metrics_sha256": _sha256(json.dumps(metrics, sort_keys=True)),
            "spans_sha256": _sha256(repr(span_tree_signature(result.spans))),
        } == GOLDEN_CONTROL[policy]


# -- Golden trace structure ------------------------------------------------

def _key_camera_tree():
    return (
        "camera.key_frame",
        (
            ("gpu.full_frame", ()),
            ("camera.detect", ()),
            ("camera.track_refresh", ()),
        ),
    )


def _regular_camera_tree(has_gpu_batch):
    steps = [
        ("camera.flow_predict", ()),
        ("camera.policy_select", ()),
        ("camera.new_regions", ()),
        ("camera.slice", ()),
    ]
    if has_gpu_batch:
        steps.append(("gpu.execute", ()))
    steps += [("camera.detect", ()), ("camera.track_refresh", ())]
    return ("camera.regular_frame", tuple(steps))


GOLDEN_KEY_FRAME = (
    (
        "frame",
        (
            ("sim.advance", ()),
            (
                "central_stage",
                tuple([_key_camera_tree()] * N_CAMERAS)
                + (
                    (
                        "scheduler.schedule",
                        (
                            ("scheduler.associate", ()),
                            ("scheduler.solve", (("balb.central", ()),)),
                            (
                                "scheduler.comm",
                                tuple(
                                    [("net.round_trip", ())] * N_CAMERAS
                                ),
                            ),
                        ),
                    ),
                ),
            ),
        ),
    ),
)

# Which cameras had slices batched on the first regular frame of the golden
# balb run (deterministic for seed=0).
GOLDEN_REGULAR_GPU_PATTERN = (True, True, False, True, False)

GOLDEN_REGULAR_FRAME = (
    (
        "frame",
        (
            ("sim.advance", ()),
            (
                "distributed_stage",
                tuple(
                    _regular_camera_tree(g)
                    for g in GOLDEN_REGULAR_GPU_PATTERN
                ),
            ),
        ),
    ),
)


def _frame_subtree(spans, want_key):
    root = next(
        s
        for s in spans
        if s.name == "frame" and bool(s.tags.get("key")) == want_key
    )
    ids = {root.span_id}
    out = []
    for s in spans:
        if s.span_id == root.span_id or s.parent_id in ids:
            ids.add(s.span_id)
            out.append(s)
    return out


class TestGoldenTrace:
    def test_trace_is_complete(self, golden_runs):
        """Every frame appears in the trace under a single root."""
        _, config, _, runs = golden_runs
        spans = runs["balb"].spans
        roots = [s for s in spans if s.parent_id is None]
        assert [s.name for s in roots] == ["run"]
        frames = [s for s in spans if s.name == "frame"]
        assert len(frames) == config.horizon * config.n_horizons
        ids = {s.span_id for s in spans}
        assert all(
            s.parent_id in ids for s in spans if s.parent_id is not None
        )

    def test_key_frame_matches_golden_tree(self, golden_runs):
        _, _, _, runs = golden_runs
        subtree = _frame_subtree(runs["balb"].spans, want_key=True)
        assert span_tree_signature(subtree) == GOLDEN_KEY_FRAME

    def test_regular_frame_matches_golden_tree(self, golden_runs):
        _, _, _, runs = golden_runs
        subtree = _frame_subtree(runs["balb"].spans, want_key=False)
        assert span_tree_signature(subtree) == GOLDEN_REGULAR_FRAME

    def test_same_seed_runs_have_identical_span_trees(self, golden_runs):
        """Acceptance criterion: tracing is structurally deterministic."""
        scenario, config, trained, runs = golden_runs
        rerun = run_policy(scenario, "balb", config, trained)
        assert span_tree_signature(rerun.spans) == span_tree_signature(
            runs["balb"].spans
        )

    def test_trace_round_trips_through_jsonl(self, golden_runs, tmp_path):
        _, _, _, runs = golden_runs
        path = tmp_path / "golden.jsonl"
        write_spans_jsonl(runs["balb"].spans, str(path))
        restored = read_spans_jsonl(str(path))
        assert restored == runs["balb"].spans

    def test_untraced_run_matches_traced_numbers(self, golden_runs):
        """Tracing must not perturb the simulation itself."""
        scenario, config, trained, runs = golden_runs
        quiet = PipelineConfig(**{**config.__dict__, "trace": False})
        result = run_policy(scenario, "balb", quiet, trained)
        assert result.spans == []
        assert result.mean_slowest_latency() == pytest.approx(
            runs["balb"].mean_slowest_latency(), rel=1e-12
        )
        assert result.object_recall() == pytest.approx(
            runs["balb"].object_recall(), rel=1e-12
        )
