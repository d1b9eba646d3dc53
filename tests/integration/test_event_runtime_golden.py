"""Golden wall around the ingest edge every frame passes through.

Two contracts are pinned here:

* **Identity** — with ingest bursts disabled, the edge is a transparent
  pass-through: a run at the default edge settings is byte-identical to
  the same run through a capacity-1 edge — same ``FrameRecord`` list,
  same metrics (minus the host-time ``frame_wall_ms`` histogram), same
  span tree — for all five policies on S1, all three ingest policies,
  and BALB on S2/S3.
* **Burst golden** — S1 under the ``ingest`` chaos preset has its own
  checked-in span trees (a stall frame and a backlog-release frame) and
  exact ingest-ledger counters, so the burst path can't drift silently.

If a change is *intentional*, regenerate the constants by running the
fixture configuration and updating the values below.
"""

import pytest

from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.scenarios.aic21 import get_scenario
from tests.obs.span_tree import span_tree_signature

POLICIES = ("full", "balb-ind", "balb-cen", "balb", "sp")
INGEST_POLICIES = (
    "drop-oldest", "degrade-to-distributed", "coalesce-to-key-frame"
)


def _config(**overrides):
    base = dict(
        policy="balb", horizon=5, n_horizons=4, warmup_s=5.0,
        train_duration_s=20.0, seed=0, trace=True,
    )
    base.update(overrides)
    return PipelineConfig(**base)


def _stable_metrics(result):
    """Metrics under the identity contract (host wall time excluded)."""
    return [m for m in result.metrics if m["name"] != "frame_wall_ms"]


@pytest.fixture(scope="module")
def s1_setup():
    scenario = get_scenario("S1", seed=0)
    config = _config()
    return scenario, config, train_models(scenario, config)


def _at_capacity_one(config, **overrides):
    """The same run through the tightest ingest edge."""
    return PipelineConfig(
        **{**config.__dict__, "ingest_capacity": 1, **overrides}
    )


def _assert_identical(plain, edge):
    assert edge.frames == plain.frames
    assert _stable_metrics(edge) == _stable_metrics(plain)
    assert span_tree_signature(edge.spans) == span_tree_signature(
        plain.spans
    )


class TestSyncEventIdentity:
    """No bursts → the ingest edge is unobservable.

    Every frame passes through the edge, so the oracle is the edge's
    own transparency: capacity and backpressure policy must not show in
    a burst-free run's frames, metrics or span tree.
    """

    @pytest.mark.parametrize("policy", POLICIES)
    def test_s1_identity_for_every_policy(self, s1_setup, policy):
        scenario, config, trained = s1_setup
        plain = run_policy(scenario, policy, config, trained)
        edge = run_policy(
            scenario, policy, _at_capacity_one(config), trained
        )
        _assert_identical(plain, edge)

    @pytest.mark.parametrize("scenario_name", ("S2", "S3"))
    def test_identity_holds_on_other_scenarios(self, scenario_name):
        scenario = get_scenario(scenario_name, seed=0)
        config = _config(n_horizons=3)
        trained = train_models(scenario, config)
        plain = run_policy(scenario, "balb", config, trained)
        edge = run_policy(
            scenario, "balb", _at_capacity_one(config), trained
        )
        _assert_identical(plain, edge)

    @pytest.mark.parametrize("ingest_policy", INGEST_POLICIES)
    def test_identity_is_ingest_policy_independent(
        self, s1_setup, ingest_policy
    ):
        """Without bursts no queue ever overflows, so the backpressure
        policy must be unobservable."""
        scenario, config, trained = s1_setup
        plain = run_policy(scenario, "balb", config, trained)
        edge = run_policy(
            scenario, "balb",
            _at_capacity_one(config, ingest_policy=ingest_policy),
            trained,
        )
        _assert_identical(plain, edge)

    def test_burst_free_runs_export_no_ingest_metrics(self, s1_setup):
        scenario, config, trained = s1_setup
        plain = run_policy(scenario, "balb", config, trained)
        assert not [
            m for m in plain.metrics if m["name"].startswith("ingest_")
        ]


# -- The burst golden: S1 under the `ingest` chaos preset ------------------

# Exact ingest-ledger counters for the fixture burst run (capacity 2,
# drop-oldest, seed 0): 20 frames x 5 cameras = 100 offered; the seeded
# burst schedule stalls 8 camera-frames, all of which the drop-oldest
# policy sheds on release.
GOLDEN_BURST_COUNTERS = {
    "ingest_offered_total": 100,
    "ingest_admitted_total": 100,
    "ingest_served_total": 92,
    "ingest_dropped_total": 8,
    "ingest_coalesced_total": 0,
    "ingest_stalled_frames_total": 8,
}


def _regular_camera_tree(has_gpu_batch=False):
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


# Frame 2: camera 3 is inside its burst window — the frame opens with the
# fault and stall spans and only four cameras run the distributed stage.
GOLDEN_STALL_FRAME = (
    (
        "frame",
        (
            ("fault.ingest_burst", ()),
            ("ingest.stall", ()),
            ("sim.advance", ()),
            (
                "distributed_stage",
                tuple([_regular_camera_tree()] * 4),
            ),
        ),
    ),
)

# Frame 3: camera 3's window ends; its backlog releases and drop-oldest
# sheds one stale frame. All five cameras are back; the fourth batches.
GOLDEN_RELEASE_FRAME = (
    (
        "frame",
        (
            ("ingest.drop", ()),
            ("sim.advance", ()),
            (
                "distributed_stage",
                tuple(
                    _regular_camera_tree(has_gpu_batch=(i == 3))
                    for i in range(5)
                ),
            ),
        ),
    ),
)


@pytest.fixture(scope="module")
def burst_run(s1_setup):
    scenario, config, trained = s1_setup
    burst_config = PipelineConfig(**{
        **config.__dict__, "faults": "ingest", "ingest_capacity": 2,
    })
    result = run_policy(scenario, "balb", burst_config, trained)
    return scenario, burst_config, trained, result


def _frame_subtree(spans, frame_index):
    root = next(
        s
        for s in spans
        if s.name == "frame" and s.tags.get("frame") == frame_index
    )
    ids = {root.span_id}
    out = []
    for s in spans:
        if s.span_id == root.span_id or s.parent_id in ids:
            ids.add(s.span_id)
            out.append(s)
    return out


class TestBurstGolden:
    def test_stall_frame_matches_golden_tree(self, burst_run):
        *_, result = burst_run
        subtree = _frame_subtree(result.spans, frame_index=2)
        assert span_tree_signature(subtree) == GOLDEN_STALL_FRAME

    def test_release_frame_matches_golden_tree(self, burst_run):
        *_, result = burst_run
        subtree = _frame_subtree(result.spans, frame_index=3)
        assert span_tree_signature(subtree) == GOLDEN_RELEASE_FRAME

    def test_ingest_counters_match_golden_ledger(self, burst_run):
        *_, result = burst_run
        counters = {}
        for m in result.metrics:
            if m["kind"] == "counter" and m["name"].startswith("ingest_"):
                name = m["name"]
                counters[name] = counters.get(name, 0) + int(m["value"])
        assert counters == GOLDEN_BURST_COUNTERS

    def test_burst_run_is_deterministic(self, burst_run):
        scenario, burst_config, trained, result = burst_run
        rerun = run_policy(scenario, "balb", burst_config, trained)
        assert rerun.frames == result.frames
        assert span_tree_signature(rerun.spans) == span_tree_signature(
            result.spans
        )
