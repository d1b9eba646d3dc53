"""The --faults spec DSL, chaos presets, and resolve_faults."""

import re

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from repro.faults import (
    CHAOS_PRESETS,
    FaultKind,
    FaultModel,
    FaultSchedule,
    parse_fault_spec,
    render_clause,
    resolve_faults,
    validate_fault_spec,
)
from repro.faults.schedule import _CAMERA_REQUIRED, FaultEvent
from repro.faults.spec import fault_source
from repro.runtime.pipeline import PipelineConfig


def test_parse_scripted_clauses():
    sched = parse_fault_spec(
        "crash:cam=1,at=12,for=10;loss:p=0.1;delay:ms=40,at=10,for=5;"
        "gpu:cam=0,x=3,at=5,for=25;partition:cam=2,at=8,for=6"
    )
    assert isinstance(sched, FaultSchedule)
    kinds = sorted(e.kind.value for e in sched.events)
    assert kinds == ["camera_crash", "gpu_slowdown", "link_delay",
                     "link_loss", "partition"]
    crash = next(e for e in sched.events
                 if e.kind is FaultKind.CAMERA_CRASH)
    assert (crash.camera_id, crash.start_frame, crash.duration) == (1, 12, 10)
    loss = next(e for e in sched.events if e.kind is FaultKind.LINK_LOSS)
    assert loss.camera_id is None  # fleet-wide
    assert loss.start_frame == 0 and loss.duration is None


def test_parse_defaults_at_zero_for_open_ended():
    sched = parse_fault_spec("crash:cam=0")
    (e,) = sched.events
    assert e.start_frame == 0 and e.duration is None


def test_parse_rand_clause_builds_model():
    model = parse_fault_spec("rand:crash=0.01,outage=12,loss=0.05,gpu_x=2.5")
    assert isinstance(model, FaultModel)
    assert model.crash_rate == 0.01
    assert model.mean_outage_frames == 12
    assert model.loss_prob == 0.05
    assert model.slowdown_factor == 2.5


@pytest.mark.parametrize("bad", [
    "",
    "bogus:cam=1",
    "crash:cam=1,nope=3",
    "crash:cam",
    "loss:",                       # loss needs p=
    "delay:at=3",                  # delay needs ms=
    "gpu:cam=0",                   # gpu needs x=
    "crash:cam=0;rand:crash=0.1",  # rand must be the whole spec
    "crash:cam=x",
    "loss:p=1.5",
    "crash:cam=0,at=-1",
    "crash:cam=0,cam=1",
])
def test_validate_rejects_malformed_specs(bad):
    with pytest.raises(ValueError):
        validate_fault_spec(bad)


def test_presets_are_valid_non_null_models():
    assert set(CHAOS_PRESETS) == {"light", "heavy", "cameras", "network",
                                  "gpu", "scheduler", "ingest", "wire",
                                  "fleet"}
    for name, model in CHAOS_PRESETS.items():
        assert isinstance(model, FaultModel), name
        assert not model.is_null, name


def test_resolve_disabled_forms_return_an_empty_schedule():
    for disabled in (None, "", "  ", FaultModel(), FaultSchedule()):
        sched = resolve_faults(disabled, [0], 10, seed=0)
        assert isinstance(sched, FaultSchedule) and not sched
        assert not sched.at(3, [0]).any_active


def test_resolve_preset_name_and_spec_string():
    sched = resolve_faults("cameras", [0, 1, 2], 500, seed=0)
    assert isinstance(sched, FaultSchedule) and len(sched) > 0
    sched2 = resolve_faults("crash:cam=1,at=3,for=2", [0, 1], 10, seed=0)
    assert len(sched2) == 1


def test_resolve_passes_schedules_through_and_compiles_models():
    raw = FaultSchedule([
        FaultEvent(FaultKind.CAMERA_CRASH, 0, duration=2, camera_id=0),
    ])
    assert resolve_faults(raw, [0], 10, seed=0) is raw
    compiled = resolve_faults(
        FaultModel(crash_rate=0.2), [0, 1], 100, seed=0
    )
    assert isinstance(compiled, FaultSchedule)


def test_fault_source_names_without_compiling():
    assert fault_source(None) is None
    assert fault_source("  ") is None
    assert fault_source("heavy") is CHAOS_PRESETS["heavy"]
    assert len(fault_source("crash:cam=1,at=3,for=2")) == 1
    model = FaultModel(crash_rate=0.2)
    assert fault_source(model) is model


def test_fault_source_rejects_bad_specs_and_types():
    with pytest.raises(ValueError, match="unknown fault kind"):
        fault_source("bogus")
    with pytest.raises(TypeError, match="faults must be"):
        fault_source(3)


def test_resolve_is_seed_deterministic():
    a = resolve_faults("heavy", [0, 1, 2], 300, seed=5)
    b = resolve_faults("heavy", [0, 1, 2], 300, seed=5)
    c = resolve_faults("heavy", [0, 1, 2], 300, seed=6)
    assert a.events == b.events
    assert a.events != c.events


def test_resolve_rejects_wrong_types():
    with pytest.raises(TypeError):
        resolve_faults(42, [0], 10, seed=0)


def test_parse_scheduler_clauses():
    sched = parse_fault_spec("sched_crash:at=12,for=15")
    (e,) = sched.events
    assert e.kind is FaultKind.SCHEDULER_CRASH
    assert e.camera_id is None
    assert (e.start_frame, e.duration) == (12, 15)
    paired = parse_fault_spec("sched_crash:at=12;sched_rejoin:at=30")
    kinds = [e.kind for e in paired.events]
    assert kinds == [FaultKind.SCHEDULER_CRASH, FaultKind.SCHEDULER_REJOIN]
    assert paired.at(29, [0]).scheduler_down
    assert not paired.at(30, [0]).scheduler_down


def test_parse_scheduler_clause_rejections_name_the_clause():
    with pytest.raises(ValueError, match="sched_crash:cam=1"):
        parse_fault_spec("sched_crash:cam=1,at=5")
    with pytest.raises(ValueError, match="takes no for="):
        parse_fault_spec("sched_rejoin:at=5,for=3")


def test_rand_scheduler_keys_build_model():
    model = parse_fault_spec("rand:sched=0.01,sched_frames=20")
    assert isinstance(model, FaultModel)
    assert model.scheduler_crash_rate == 0.01
    assert model.mean_scheduler_outage_frames == 20.0


def test_scheduler_chaos_preset_exists():
    model = CHAOS_PRESETS["scheduler"]
    assert model.scheduler_crash_rate > 0
    compiled = model.compile([0, 1, 2], 500, seed=0)
    assert compiled.has_scheduler_faults


@pytest.mark.parametrize("spec,named", [
    ("drift:cam=1,rate=inf", "clock_drift"),
    ("drift:cam=1,rate=nan", "clock_drift"),
    ("flap:cam=0,period=nan", "camera_flap"),
    ("delay:ms=nan", "link_delay"),
    ("rand:crash=0.1,outage=nan", "mean_outage_frames"),
    ("rand:drift=0.2,drift_slope=inf", "drift_slope"),
    ("rand:flap=0.3,flap_period=nan", "flap_period_frames"),
    ("rand:gpu=0.2,gpu_x=inf", "slowdown_factor"),
])
def test_non_finite_magnitudes_refused_when_the_config_is_built(spec, named):
    # An event clause's error names the clause; a rand: clause is the
    # whole spec, and its model names the field.
    clause = "" if spec.startswith("rand:") else f"fault clause '{spec}': "
    with pytest.raises(
        ValueError, match=rf"^faults: {re.escape(clause)}{named}\b.*must be finite"
    ):
        PipelineConfig(faults=spec)


@pytest.mark.parametrize("spec,clause,message", [
    ("loss:p=0.1;dup:p=2", "dup:p=2",
     "msg_duplicate magnitude is a probability in [0, 1]"),
    ("fade:cam=1,at=3,for=2,x=0.5", "fade:cam=1,at=3,for=2,x=0.5",
     "quality_fade magnitude (miss-probability multiplier) must be >= 1"),
])
def test_event_range_errors_name_their_clause(spec, clause, message):
    with pytest.raises(ValueError) as info:
        parse_fault_spec(spec)
    assert str(info.value) == f"fault clause {clause!r}: {message}"


#: Magnitudes the DSL can write for each kind that has a magnitude key:
#: round numbers, long decimals and extremes alike.
_CLAUSE_MAGNITUDES = {
    FaultKind.LINK_LOSS: st.floats(0.0, 1.0),
    FaultKind.MSG_CORRUPT: st.floats(0.0, 1.0),
    FaultKind.MSG_DUPLICATE: st.floats(0.0, 1.0),
    FaultKind.MSG_REORDER: st.floats(0.0, 1.0),
    FaultKind.LINK_DELAY: st.sampled_from([-0.0, 1234567.0]) | st.floats(
        0.0, allow_infinity=False
    ),
    FaultKind.GPU_SLOWDOWN: st.floats(0.0, exclude_min=True, allow_infinity=False),
    FaultKind.CLOCK_DRIFT: st.floats(0.0, exclude_min=True, allow_infinity=False),
    FaultKind.CAMERA_FLAP: st.floats(1.0, allow_infinity=False),
    FaultKind.QUALITY_FADE: st.floats(1.0, allow_infinity=False),
}
_CENTRAL_NODE = (FaultKind.SCHEDULER_CRASH, FaultKind.SCHEDULER_REJOIN)


@st.composite
def dsl_events(draw):
    """Valid events with a finite magnitude, as the DSL can write them.

    Kinds without a magnitude key carry the 0.0 their clause parses to;
    camera ids are non-negative, like every ``cam=``.
    """
    kind = draw(st.sampled_from(list(FaultKind)))
    cameras = st.integers(0, 10_000)
    if kind in _CENTRAL_NODE:
        cameras = st.none()
    elif kind not in _CAMERA_REQUIRED:
        cameras = st.none() | cameras
    durations = st.none()
    if kind is not FaultKind.SCHEDULER_REJOIN:
        durations = durations | st.integers(1, 10**9)
    return FaultEvent(
        kind,
        draw(st.integers(0, 10**9)),
        duration=draw(durations),
        camera_id=draw(cameras),
        magnitude=draw(_CLAUSE_MAGNITUDES.get(kind, st.just(0.0))),
    )


@settings(max_examples=400, deadline=None)
@given(event=dsl_events())
def test_render_clause_round_trips_every_valid_event(event):
    (again,) = parse_fault_spec(render_clause(event)).events
    assert again == event
    assert repr(again.magnitude) == repr(event.magnitude)


def test_render_keeps_every_digit():
    loss = FaultEvent(FaultKind.LINK_LOSS, 0, magnitude=0.1234567)
    delay = FaultEvent(FaultKind.LINK_DELAY, 3, magnitude=1234567.0)
    assert render_clause(loss) == "loss:p=0.1234567"
    assert render_clause(delay) == "delay:ms=1234567.0,at=3"
