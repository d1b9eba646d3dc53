"""Span order and frame records on the frames where the control plane acts.

The golden trace tests pin one fault-free key-frame subtree and one
regular-frame subtree. This module pins the frames in between: those
where ``failover.*``, ``wire.*``, ``ingest.degrade`` and ``health.*``
spans sit among the camera and scheduler spans. Each run's span log
(span id, parent id, name, tags; no durations) and its frame records
(every field, dicts in insertion order) are reduced to a sha256.

If a change moves one of these digests on purpose, rerun the fixture's
configurations and update the constants below.
"""

import hashlib

import pytest

from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
from repro.scenarios.aic21 import get_scenario

# (a) the control-plane plan of .github/golden/s1_balb_control_seed0.out:
# split takeover, fenced heal, reunite, crash takeover, handback,
# replication and the receiver guards.
CONTROL_FAULTS = (
    "sched_partition:cam=1,at=8,for=8;sched_partition:cam=2,at=8,for=8;"
    "sched_crash:at=22,for=12;corrupt:p=0.1;dup:p=0.1;reorder:p=0.1"
)

RUNS = {
    "control": ("balb", {"faults": CONTROL_FAULTS}),
    # (b) ingest bursts with degraded key frames.
    "ingest-degrade": ("balb", {
        "faults": "ingest", "ingest_capacity": 2,
        "ingest_policy": "degrade-to-distributed",
    }),
    # (c) the fleet-health preset under occlusion: quarantines, refits,
    # frozen views, drift lags.
    "fleet-occluded": ("balb", {"faults": "fleet", "occlusion": True}),
    # (d) the heavy preset under static partitioning.
    "heavy-sp": ("sp", {"faults": "heavy"}),
}

GOLDEN = {
    "control": {
        "spans": (
            "f54340d19b9d99421afaa117236aef0e7ce707aa364684c4ee36e2d916f9e9fc"
        ),
        "frames": (
            "389d818516b7429bff258954658cd09716d453ec447888767dae89c750ab052d"
        ),
        "n_spans": 1633,
    },
    "ingest-degrade": {
        "spans": (
            "7f1b7d835cb783131bc6ff021f7c5ae54c2c89dc85319727b6e235edc0f4f4a6"
        ),
        "frames": (
            "2811d9951ba51c51bb35e27ccb6ca109874f3b56f2135d67b6701ac1ceb8307f"
        ),
        "n_spans": 1458,
    },
    "fleet-occluded": {
        "spans": (
            "b5c4794167afcd7dcd6b89c81a74f9849a16321b3dbb251f32767615bff6a1d2"
        ),
        "frames": (
            "bbc2d04011971df5361162215e87a6c3f7a9e0b34e29b137d1ff77411656d9f0"
        ),
        "n_spans": 1171,
    },
    "heavy-sp": {
        "spans": (
            "ff5aeeadd85696bc1cf6e5a6ae0006a3fdf15b21619f0af3ff9c9c9b2ed19cc2"
        ),
        "frames": (
            "04aa986e472268001fdb6ca35da3ec7fe44051b5c0c219893accde2df4549c8e"
        ),
        "n_spans": 1522,
    },
}


def _config(policy, overrides):
    return PipelineConfig(
        policy=policy, horizon=5, n_horizons=8, warmup_s=10.0,
        train_duration_s=20.0, seed=0, trace=True, **overrides,
    )


def _digests(result):
    spans = hashlib.sha256()
    for s in result.spans:
        spans.update(repr((
            s.span_id, s.parent_id, s.name, sorted(s.tags.items()),
        )).encode())
    frames = hashlib.sha256()
    for f in result.frames:
        frames.update(repr((
            f.frame_index, f.is_key_frame, sorted(f.visible_gt),
            sorted(f.detected_gt), list(f.inference_ms.items()),
            list(f.overheads_ms.items()), list(f.n_slices.items()),
            sorted(f.coverage_lost),
        )).encode())
    return {
        "spans": spans.hexdigest(),
        "frames": frames.hexdigest(),
        "n_spans": len(result.spans),
    }


@pytest.fixture(scope="module")
def setup():
    scenario = get_scenario("S1", seed=0)
    trained = train_models(scenario, _config("balb", {}))
    return scenario, trained


def _run(setup, name):
    scenario, trained = setup
    policy, overrides = RUNS[name]
    return run_policy(scenario, policy, _config(policy, overrides), trained)


@pytest.fixture(scope="module")
def results(setup):
    return {name: _run(setup, name) for name in RUNS}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_run_matches_golden(results, name):
    assert _digests(results[name]) == GOLDEN[name]


@pytest.mark.parametrize("name", sorted(RUNS))
def test_same_seed_gives_same_digests(setup, results, name):
    assert _digests(_run(setup, name)) == _digests(results[name])


def test_runs_reach_the_control_plane_spans(results):
    names = {
        name: {s.name for s in result.spans} for name, result in results.items()
    }
    assert {"failover.split_takeover", "failover.takeover",
            "failover.replicate", "wire.corrupt"} <= names["control"]
    assert "ingest.degrade" in names["ingest-degrade"]
    assert any(n.startswith("health.") for n in names["fleet-occluded"])
