"""The ``--faults`` spec DSL, chaos presets, and spec resolution.

Scripted events are semicolon-separated ``kind:key=value,...`` clauses::

    crash:cam=1,at=12,for=10        # camera 1 dead for frames [12, 22)
    partition:cam=0,at=8,for=6      # camera 0 unreachable for 6 frames
    loss:p=0.1                      # 10% message loss, all channels, whole run
    loss:p=0.3,cam=2,at=5,for=20    # scoped loss burst on camera 2's channel
    delay:ms=40,at=10,for=5         # +40 ms per message for 5 frames
    gpu:cam=0,x=3,at=5,for=25       # camera 0's GPU runs 3x slower
    sched_crash:at=12,for=15        # central scheduler dead for 15 frames
    sched_crash:at=12;sched_rejoin:at=30   # open-ended crash + explicit rejoin
    burst:cam=1,at=10,for=6         # camera 1's ingest stalls, then bunches
    burst:at=20,for=4               # fleet-wide ingest burst
    sched_partition:cam=2,at=10,for=8  # camera 2 cut off from the primary
    sched_partition:at=10,for=8     # whole fleet cut from the primary
    corrupt:p=0.05                  # 5% of messages damaged in flight
    dup:p=0.05,cam=1,at=5,for=20    # scoped duplicate delivery on camera 1
    reorder:p=0.03                  # 3% of messages delivered out of order
    freeze:cam=1,at=10,for=15       # camera 1 repeats its last frame
    drift:cam=2,rate=0.5,at=5,for=20  # camera 2's clock lags 0.5 frames/frame
    flap:cam=0,period=2,at=10,for=12  # camera 0 leaves/joins every 2 frames
    fade:cam=1,x=8,at=10,for=25     # camera 1's detector misses ramp to 8x

``at`` defaults to frame 0 and ``for`` to the rest of the run. A
``rand:`` clause instead builds a stochastic
:class:`~repro.faults.model.FaultModel` (rates per camera-frame)::

    rand:crash=0.01,outage=12,loss=0.05,gpu=0.003,gpu_x=2.5,sched=0.005

Chaos presets name curated models: ``--chaos heavy`` etc.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.faults.model import FaultModel
from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule

FaultInput = Union[None, str, FaultSchedule, FaultModel]

#: Curated stochastic fault mixes for chaos runs.
CHAOS_PRESETS: Dict[str, FaultModel] = {
    "light": FaultModel(
        crash_rate=0.002, mean_outage_frames=8.0,
        loss_prob=0.02,
        slowdown_rate=0.002, slowdown_factor=1.5,
        mean_slowdown_frames=10.0,
    ),
    "heavy": FaultModel(
        crash_rate=0.01, mean_outage_frames=15.0,
        partition_rate=0.005, mean_partition_frames=10.0,
        loss_prob=0.1,
        delay_spike_rate=0.01, delay_ms=60.0, mean_delay_frames=6.0,
        slowdown_rate=0.005, slowdown_factor=3.0,
        mean_slowdown_frames=20.0,
    ),
    "cameras": FaultModel(crash_rate=0.01, mean_outage_frames=12.0),
    "network": FaultModel(
        loss_prob=0.15,
        delay_spike_rate=0.02, delay_ms=80.0, mean_delay_frames=5.0,
        partition_rate=0.004, mean_partition_frames=8.0,
    ),
    "gpu": FaultModel(
        slowdown_rate=0.01, slowdown_factor=3.0, mean_slowdown_frames=25.0
    ),
    "scheduler": FaultModel(
        scheduler_crash_rate=0.01, mean_scheduler_outage_frames=15.0,
        loss_prob=0.05,
    ),
    "ingest": FaultModel(
        burst_rate=0.03, mean_burst_frames=5.0,
    ),
    "wire": FaultModel(
        loss_prob=0.05,
        corrupt_prob=0.04, duplicate_prob=0.04, reorder_prob=0.03,
        scheduler_partition_rate=0.01,
        mean_scheduler_partition_frames=8.0,
        scheduler_crash_rate=0.004, mean_scheduler_outage_frames=10.0,
    ),
    # Degraded sensors: cameras that lie rather than die. Exercises the
    # fleet-health watchdog's quarantine/probation lifecycle.
    "fleet": FaultModel(
        freeze_rate=0.012, mean_freeze_frames=10.0,
        clock_drift_rate=0.008, drift_slope=0.6, mean_drift_frames=12.0,
        flap_rate=0.006, flap_period_frames=2.0, mean_flap_frames=8.0,
        fade_rate=0.008, fade_factor=8.0, mean_fade_frames=15.0,
    ),
}

_EVENT_KINDS = {
    "crash": FaultKind.CAMERA_CRASH,
    "partition": FaultKind.PARTITION,
    "loss": FaultKind.LINK_LOSS,
    "delay": FaultKind.LINK_DELAY,
    "gpu": FaultKind.GPU_SLOWDOWN,
    "sched_crash": FaultKind.SCHEDULER_CRASH,
    "sched_rejoin": FaultKind.SCHEDULER_REJOIN,
    "burst": FaultKind.INGEST_BURST,
    "sched_partition": FaultKind.SCHEDULER_PARTITION,
    "corrupt": FaultKind.MSG_CORRUPT,
    "dup": FaultKind.MSG_DUPLICATE,
    "reorder": FaultKind.MSG_REORDER,
    "freeze": FaultKind.SENSOR_FREEZE,
    "drift": FaultKind.CLOCK_DRIFT,
    "flap": FaultKind.CAMERA_FLAP,
    "fade": FaultKind.QUALITY_FADE,
}

#: Clause name for each kind — the DSL table inverted, so events can be
#: rendered back to clause text (see :func:`render_clause`).
_CLAUSE_NAMES = {kind: name for name, kind in _EVENT_KINDS.items()}

#: The magnitude key and its usage hint of each kind that has one; the
#: parser and :func:`render_clause` both read it. Every key is required
#: except flap's ``period``, which defaults to :data:`_FLAP_PERIOD`.
_MAGNITUDES: Dict[FaultKind, Tuple[str, str]] = {
    FaultKind.LINK_LOSS: ("p", "<prob>"),
    FaultKind.MSG_CORRUPT: ("p", "<prob>"),
    FaultKind.MSG_DUPLICATE: ("p", "<prob>"),
    FaultKind.MSG_REORDER: ("p", "<prob>"),
    FaultKind.LINK_DELAY: ("ms", "<ms>"),
    FaultKind.GPU_SLOWDOWN: ("x", "<factor>"),
    FaultKind.CLOCK_DRIFT: ("rate", "<frames/frame>"),
    FaultKind.CAMERA_FLAP: ("period", "<frames>"),
    FaultKind.QUALITY_FADE: ("x", "<multiplier>"),
}

#: Flap phase length, in frames, when a ``flap:`` clause names none.
_FLAP_PERIOD = 2.0

#: ``rand:`` clause keys -> FaultModel fields.
_RAND_KEYS = {
    "crash": "crash_rate",
    "outage": "mean_outage_frames",
    "partition": "partition_rate",
    "partition_frames": "mean_partition_frames",
    "loss": "loss_prob",
    "delay": "delay_spike_rate",
    "delay_ms": "delay_ms",
    "delay_frames": "mean_delay_frames",
    "gpu": "slowdown_rate",
    "gpu_x": "slowdown_factor",
    "gpu_frames": "mean_slowdown_frames",
    "sched": "scheduler_crash_rate",
    "sched_frames": "mean_scheduler_outage_frames",
    "burst": "burst_rate",
    "burst_frames": "mean_burst_frames",
    "corrupt": "corrupt_prob",
    "dup": "duplicate_prob",
    "reorder": "reorder_prob",
    "sched_partition": "scheduler_partition_rate",
    "sched_partition_frames": "mean_scheduler_partition_frames",
    "freeze": "freeze_rate",
    "freeze_frames": "mean_freeze_frames",
    "drift": "clock_drift_rate",
    "drift_slope": "drift_slope",
    "drift_frames": "mean_drift_frames",
    "flap": "flap_rate",
    "flap_period": "flap_period_frames",
    "flap_frames": "mean_flap_frames",
    "fade": "fade_rate",
    "fade_x": "fade_factor",
    "fade_frames": "mean_fade_frames",
}


def _parse_kv(body: str, clause: str) -> Dict[str, str]:
    out: Dict[str, str] = {}
    if not body.strip():
        return out
    for item in body.split(","):
        if "=" not in item:
            raise ValueError(
                f"malformed fault clause {clause!r}: expected key=value, "
                f"got {item!r}"
            )
        key, value = item.split("=", 1)
        key, value = key.strip(), value.strip()
        if key in out:
            raise ValueError(f"duplicate key {key!r} in clause {clause!r}")
        out[key] = value
    return out


def _int_field(kv: Dict[str, str], key: str, clause: str) -> Optional[int]:
    if key not in kv:
        return None
    try:
        return int(kv.pop(key))
    except ValueError:
        raise ValueError(
            f"fault clause {clause!r}: {key} must be an integer"
        ) from None


def _float_field(kv: Dict[str, str], key: str, clause: str) -> Optional[float]:
    if key not in kv:
        return None
    try:
        return float(kv.pop(key))
    except ValueError:
        raise ValueError(f"fault clause {clause!r}: {key} must be a number") from None


def _parse_event(name: str, kv: Dict[str, str], clause: str) -> FaultEvent:
    kind = _EVENT_KINDS[name]
    if kind in (FaultKind.SCHEDULER_CRASH, FaultKind.SCHEDULER_REJOIN):
        if "cam" in kv:
            raise ValueError(
                f"fault clause {clause!r}: {name} targets the central "
                "node and takes no cam="
            )
        if kind is FaultKind.SCHEDULER_REJOIN and "for" in kv:
            raise ValueError(
                f"fault clause {clause!r}: sched_rejoin is instantaneous "
                "and takes no for="
            )
    camera = _int_field(kv, "cam", clause)
    start = _int_field(kv, "at", clause)
    duration = _int_field(kv, "for", clause)
    # Range checks with the clause in the message, so the CLI surfaces
    # the same clean one-line error as unknown keys (a negative for=
    # used to silently produce a nonsense schedule).
    if camera is not None and camera < 0:
        raise ValueError(
            f"fault clause {clause!r}: cam= must be non-negative"
        )
    if start is not None and start < 0:
        raise ValueError(
            f"fault clause {clause!r}: at= must be non-negative"
        )
    if duration is not None and duration < 1:
        raise ValueError(
            f"fault clause {clause!r}: for= must be >= 1 frame"
        )
    start = start or 0
    magnitude = 0.0
    if kind in _MAGNITUDES:
        key, hint = _MAGNITUDES[kind]
        value = _float_field(kv, key, clause)
        if value is None and kind is FaultKind.CAMERA_FLAP:
            value = _FLAP_PERIOD
        if value is None:
            raise ValueError(
                f"fault clause {clause!r}: {name} needs {key}={hint}"
            )
        magnitude = value
    if kv:
        raise ValueError(
            f"fault clause {clause!r}: unknown keys {sorted(kv)}"
        )
    try:
        return FaultEvent(
            kind=kind,
            start_frame=start,
            duration=duration,
            camera_id=camera,
            magnitude=magnitude,
        )
    except ValueError as exc:
        # The event's own range and finiteness checks, named like every
        # other clause error.
        raise ValueError(f"fault clause {clause!r}: {exc}") from None


def _parse_model(kv: Dict[str, str], clause: str) -> FaultModel:
    fields: Dict[str, float] = {}
    for key in list(kv):
        if key not in _RAND_KEYS:
            raise ValueError(
                f"fault clause {clause!r}: unknown rand key {key!r}; "
                f"options: {sorted(_RAND_KEYS)}"
            )
        value = _float_field(kv, key, clause)
        assert value is not None
        fields[_RAND_KEYS[key]] = value
    return FaultModel(**fields)


def parse_fault_spec(spec: str) -> Union[FaultSchedule, FaultModel]:
    """Parse a ``--faults`` spec into a schedule (or stochastic model).

    A spec either scripts concrete events (any mix of ``crash`` /
    ``partition`` / ``loss`` / ``delay`` / ``gpu`` clauses) or is a
    single ``rand:`` clause describing a :class:`FaultModel`; the two
    forms cannot be combined.
    """
    clauses = [c.strip() for c in spec.split(";") if c.strip()]
    if not clauses:
        raise ValueError("empty fault spec")
    events: List[FaultEvent] = []
    for clause in clauses:
        name, _, body = clause.partition(":")
        name = name.strip()
        kv = _parse_kv(body, clause)
        if name == "rand":
            if len(clauses) != 1:
                raise ValueError(
                    "a rand: clause must be the whole spec (got "
                    f"{len(clauses)} clauses)"
                )
            return _parse_model(kv, clause)
        if name not in _EVENT_KINDS:
            raise ValueError(
                f"unknown fault kind {name!r} in clause {clause!r}; "
                f"valid clauses: {', '.join(sorted(_EVENT_KINDS))}, or rand"
            )
        events.append(_parse_event(name, kv, clause))
    return FaultSchedule(events)


def render_clause(event: FaultEvent) -> str:
    """Render one event back to DSL clause text.

    The exact inverse of :func:`parse_fault_spec` for a single clause:
    ``parse_fault_spec(render_clause(e))`` yields a schedule containing
    exactly ``e`` for every event a clause can state (a non-negative
    camera, and a zero magnitude on kinds without a magnitude key),
    since magnitudes render with :func:`repr`, which round-trips every
    finite float.
    """
    parts = []
    if event.camera_id is not None:
        parts.append(f"cam={event.camera_id}")
    if event.kind in _MAGNITUDES:
        parts.append(f"{_MAGNITUDES[event.kind][0]}={event.magnitude!r}")
    if event.start_frame:
        parts.append(f"at={event.start_frame}")
    if event.duration is not None:
        parts.append(f"for={event.duration}")
    return f"{_CLAUSE_NAMES[event.kind]}:{','.join(parts)}"


def validate_fault_spec(spec: str) -> None:
    """Raise ``ValueError`` if ``spec`` is not parseable (CLI fail-fast)."""
    parse_fault_spec(spec)


def fault_source(faults: object) -> Union[None, FaultSchedule, FaultModel]:
    """The schedule or model a config-level ``faults`` value names.

    A string is a :data:`CHAOS_PRESETS` name or a spec to parse (blank
    means no faults); ``None``, a :class:`FaultSchedule` and a
    :class:`FaultModel` pass through. Raises ``ValueError`` for a
    malformed spec and ``TypeError`` for any other type, so a config can
    reject a bad value at construction.
    """
    if faults is None or isinstance(faults, (FaultSchedule, FaultModel)):
        return faults
    if isinstance(faults, str):
        text = faults.strip()
        if not text:
            return None
        if text in CHAOS_PRESETS:
            return CHAOS_PRESETS[text]
        return parse_fault_spec(text)
    raise TypeError(
        "faults must be None, a spec string, a FaultSchedule or a "
        f"FaultModel; got {type(faults).__name__}"
    )


#: Offset from a run's seed to the seed its fault models compile at, so
#: the fault stream never collides with the simulation's RNG streams.
FAULT_SEED_OFFSET = 31_337


def resolve_faults(
    faults: FaultInput,
    camera_ids: Sequence[int],
    n_frames: int,
    seed: int,
) -> FaultSchedule:
    """Turn a config-level fault input into a concrete schedule.

    Accepts ``None`` / empty (faults disabled), a spec string, a preset
    name from :data:`CHAOS_PRESETS`, a ready :class:`FaultSchedule`, or
    a :class:`FaultModel` to compile for this run. Every run gets a
    schedule: it is empty (falsy) whenever nothing can ever fire, and an
    empty schedule changes no output of a run.
    """
    source = fault_source(faults)
    if isinstance(source, FaultModel) and not source.is_null:
        return source.compile(camera_ids, n_frames, seed)
    if isinstance(source, FaultSchedule):
        return source
    return FaultSchedule()
