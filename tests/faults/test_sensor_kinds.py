"""Degraded-sensor fault kinds: freeze, drift, flap, fade.

Covers the DSL clauses, the stochastic model's compilation (including
the prefix property that keeps pre-existing models byte-identical), the
per-frame schedule queries the pipeline consumes, and the
spec -> schedule -> clause round trip.
"""

import pytest

from repro.faults import (
    CHAOS_PRESETS,
    FaultKind,
    FaultModel,
    FaultSchedule,
    parse_fault_spec,
    render_clause,
    validate_fault_spec,
)
from repro.faults.schedule import (
    DRIFT_LAG_CAP,
    FADE_RAMP_FRAMES,
    FaultEvent,
)
from repro.faults.spec import _EVENT_KINDS


class TestClauses:
    def test_parse_sensor_clauses(self):
        sched = parse_fault_spec(
            "freeze:cam=1,at=5,for=10;drift:cam=2,rate=0.5,at=3;"
            "flap:cam=0,period=2,at=8,for=12;fade:cam=3,x=6,at=4,for=9"
        )
        kinds = sorted(e.kind.value for e in sched.events)
        assert kinds == [
            "camera_flap", "clock_drift", "quality_fade", "sensor_freeze",
        ]
        drift = next(e for e in sched.events
                     if e.kind is FaultKind.CLOCK_DRIFT)
        assert drift.magnitude == pytest.approx(0.5)
        flap = next(e for e in sched.events
                    if e.kind is FaultKind.CAMERA_FLAP)
        assert flap.magnitude == pytest.approx(2.0)
        fade = next(e for e in sched.events
                    if e.kind is FaultKind.QUALITY_FADE)
        assert fade.magnitude == pytest.approx(6.0)

    def test_flap_period_defaults_to_two(self):
        sched = parse_fault_spec("flap:cam=1,at=0,for=8")
        (e,) = sched.events
        assert e.magnitude == pytest.approx(2.0)

    @pytest.mark.parametrize("bad", [
        "freeze:p=0.5",          # freeze takes no magnitude key
        "drift:cam=1",           # drift needs rate=
        "fade:cam=1",            # fade needs x=
        "fade:cam=1,x=0.5",      # fade factor must be >= 1
        "flap:cam=1,period=0",   # flap period must be >= 1
        "drift:cam=1,rate=0",    # drift rate must be positive
    ])
    def test_malformed_sensor_clauses_rejected(self, bad):
        with pytest.raises(ValueError):
            validate_fault_spec(bad)

    def test_unknown_clause_error_echoes_clause_and_lists_names(self):
        with pytest.raises(ValueError) as exc:
            parse_fault_spec("meteor:cam=1,at=3")
        message = str(exc.value)
        assert "'meteor'" in message
        assert "meteor:cam=1,at=3" in message
        # Every valid clause name is offered back to the user.
        for name in _EVENT_KINDS:
            assert name in message

    def test_rand_sensor_keys_build_model(self):
        model = parse_fault_spec(
            "rand:freeze=0.01,freeze_frames=8,drift=0.02,drift_slope=0.7,"
            "drift_frames=11,flap=0.03,flap_period=3,flap_frames=9,"
            "fade=0.04,fade_x=5,fade_frames=14"
        )
        assert isinstance(model, FaultModel)
        assert model.freeze_rate == 0.01
        assert model.mean_freeze_frames == 8
        assert model.clock_drift_rate == 0.02
        assert model.drift_slope == 0.7
        assert model.flap_rate == 0.03
        assert model.flap_period_frames == 3
        assert model.fade_rate == 0.04
        assert model.fade_factor == 5


class TestRoundTrip:
    """Spec -> schedule -> clause: every clause survives a round trip."""

    CLAUSES = [
        "crash:cam=1,at=12,for=10",
        "loss:p=0.1",
        "delay:ms=40,at=10,for=5",
        "gpu:cam=0,x=3,at=5,for=25",
        "partition:cam=2,at=8,for=6",
        "sched_crash:at=7,for=9",
        "freeze:cam=1,at=5,for=10",
        "drift:cam=2,rate=0.5,at=3,for=20",
        "flap:cam=0,period=2,at=8,for=12",
        "fade:cam=3,x=6,at=4,for=9",
    ]

    @pytest.mark.parametrize("clause", CLAUSES)
    def test_clause_round_trips_through_render(self, clause):
        (event,) = parse_fault_spec(clause).events
        rendered = render_clause(event)
        (again,) = parse_fault_spec(rendered).events
        assert again == event

    def test_every_dsl_name_maps_to_a_kind_and_back(self):
        # Property over the whole clause table: each name parses to its
        # FaultKind and re-renders to an equivalent clause.
        examples = {
            "crash": "crash:cam=0,at=1,for=4",
            "partition": "partition:cam=0,at=1,for=4",
            "loss": "loss:p=0.2,at=1,for=4",
            "corrupt": "corrupt:p=0.2,at=1,for=4",
            "dup": "dup:p=0.2,at=1,for=4",
            "reorder": "reorder:p=0.2,at=1,for=4",
            "delay": "delay:ms=25,at=1,for=4",
            "gpu": "gpu:cam=0,x=2,at=1,for=4",
            "sched_crash": "sched_crash:at=1,for=4",
            "sched_rejoin": "sched_rejoin:at=1",
            "sched_partition": "sched_partition:cam=0,at=1,for=4",
            "burst": "burst:cam=0,at=1,for=4",
            "freeze": "freeze:cam=0,at=1,for=4",
            "drift": "drift:cam=0,rate=0.4,at=1,for=4",
            "flap": "flap:cam=0,period=3,at=1,for=4",
            "fade": "fade:cam=0,x=3,at=1,for=4",
        }
        assert set(examples) == set(_EVENT_KINDS)
        for name, kind in sorted(_EVENT_KINDS.items()):
            (event,) = parse_fault_spec(examples[name]).events
            assert event.kind is kind
            (again,) = parse_fault_spec(render_clause(event)).events
            assert again == event


class TestScheduleQueries:
    def test_frozen_cameras_respect_the_window(self):
        sched = parse_fault_spec("freeze:cam=1,at=5,for=3")
        assert sched.at(4, [0, 1]).frozen == frozenset()
        assert sched.at(5, [0, 1]).frozen == frozenset({1})
        assert sched.at(7, [0, 1]).frozen == frozenset({1})
        assert sched.at(8, [0, 1]).frozen == frozenset()
        assert sched.has_sensor_faults

    def test_drift_lag_grows_and_caps(self):
        sched = parse_fault_spec("drift:cam=2,rate=0.5,at=10,for=40")

        def lag(frame, cam):
            return sched.at(frame, [0, 2]).drift_lags.get(cam, 0)

        assert lag(9, 2) == 0
        assert lag(10, 2) == 0  # floor(0.5 * 1)
        assert lag(13, 2) == 2  # floor(0.5 * 4)
        assert lag(49, 2) == DRIFT_LAG_CAP
        assert sched.max_drift_lag(60) == DRIFT_LAG_CAP
        assert lag(20, 0) == 0  # other cameras unaffected

    def test_flap_alternates_down_and_up(self):
        sched = parse_fault_spec("flap:cam=1,period=2,at=10,for=8")
        # The window opens with a leave: down for `period` frames, up
        # for `period` frames, repeating.
        phases = [1 in sched.at(f, [0, 1]).down for f in range(10, 18)]
        assert phases == [True, True, False, False, True, True, False, False]
        assert 1 not in sched.at(9, [0, 1]).down
        assert 1 not in sched.at(18, [0, 1]).down

    def test_fade_ramps_then_holds(self):
        sched = parse_fault_spec("fade:cam=0,x=5,at=10,for=30")

        def fade(frame):
            return sched.at(frame, [0]).fade.get(0, 1.0)

        assert fade(9) == pytest.approx(1.0)
        ramp = [fade(10 + i) for i in range(FADE_RAMP_FRAMES + 3)]
        assert ramp[0] < ramp[1] < ramp[FADE_RAMP_FRAMES]
        assert ramp[FADE_RAMP_FRAMES] == pytest.approx(5.0)
        assert ramp[-1] == pytest.approx(5.0)
        assert fade(41) == pytest.approx(1.0)

    def test_at_snapshot_carries_sensor_fields(self):
        sched = parse_fault_spec(
            "freeze:cam=1,at=0,for=5;drift:cam=0,rate=1,at=0,for=5;"
            "fade:cam=2,x=4,at=0,for=5"
        )
        ff = sched.at(2, [0, 1, 2])
        assert ff.frozen == frozenset({1})
        assert ff.drift_lags == {0: 3}
        assert 2 in ff.fade and ff.fade[2] > 1.0
        assert ff.any_active


class TestModelCompilation:
    def test_sensor_rates_compile_to_sensor_events(self):
        model = FaultModel(
            freeze_rate=0.05, clock_drift_rate=0.05, flap_rate=0.05,
            fade_rate=0.05,
        )
        sched = model.compile([0, 1, 2], 200, seed=7)
        kinds = {e.kind for e in sched.events}
        assert FaultKind.SENSOR_FREEZE in kinds
        assert FaultKind.CLOCK_DRIFT in kinds
        assert FaultKind.CAMERA_FLAP in kinds
        assert FaultKind.QUALITY_FADE in kinds
        assert sched.has_sensor_faults

    def test_prefix_property_preserves_existing_models(self):
        # The sensor processes draw strictly after every pre-existing
        # process, so a model without sensor rates compiles to the exact
        # same schedule it did before the sensor kinds existed.
        base = FaultModel(crash_rate=0.02, loss_prob=0.05,
                          slowdown_rate=0.01, scheduler_crash_rate=0.01)
        with_sensors = FaultModel(
            crash_rate=0.02, loss_prob=0.05, slowdown_rate=0.01,
            scheduler_crash_rate=0.01, freeze_rate=0.05, flap_rate=0.05,
        )
        plain = base.compile([0, 1, 2], 150, seed=11)
        augmented = with_sensors.compile([0, 1, 2], 150, seed=11)
        sensor_kinds = {
            FaultKind.SENSOR_FREEZE, FaultKind.CLOCK_DRIFT,
            FaultKind.CAMERA_FLAP, FaultKind.QUALITY_FADE,
        }
        stripped = tuple(
            e for e in augmented.events if e.kind not in sensor_kinds
        )
        assert stripped == plain.events

    def test_null_model_stays_null(self):
        assert FaultModel().is_null
        assert not FaultModel(freeze_rate=0.01).is_null

    def test_fleet_preset_is_registered_and_sensor_heavy(self):
        model = CHAOS_PRESETS["fleet"]
        assert model.freeze_rate > 0
        assert model.clock_drift_rate > 0
        assert model.flap_rate > 0
        assert model.fade_rate > 0
        sched = model.compile([0, 1, 2, 3, 4], 100, seed=0)
        assert isinstance(sched, FaultSchedule)

    def test_event_validation(self):
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.CLOCK_DRIFT, 0, duration=5, camera_id=0,
                       magnitude=0.0)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.QUALITY_FADE, 0, duration=5, camera_id=0,
                       magnitude=0.5)
        with pytest.raises(ValueError):
            FaultEvent(FaultKind.SENSOR_FREEZE, 0, duration=5)  # needs cam
