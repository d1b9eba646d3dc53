"""Independent per-camera reference for ``FaultSchedule.at``.

Each query below answers one question about one camera by scanning the
whole event list again, the way the schedule resolved frames before it
walked each frame once. It shares no code with ``FaultSchedule``: the
property tests in ``test_schedule_oracle.py`` hold the one-walk
resolver to these per-kind definitions.
"""

import math

from repro.faults.schedule import (
    DRIFT_LAG_CAP,
    FADE_RAMP_FRAMES,
    FaultKind,
    FrameFaults,
)
from repro.net.link import LinkFault

WIRE_KINDS = (FaultKind.MSG_CORRUPT, FaultKind.MSG_DUPLICATE,
              FaultKind.MSG_REORDER)


def _open(event, frame):
    if frame < event.start_frame:
        return False
    return event.duration is None or frame < event.start_frame + event.duration


def _hits(event, camera_id):
    return event.camera_id is None or event.camera_id == camera_id


def _active(events, kind, frame, camera_id):
    return [
        e for e in events
        if e.kind is kind and _open(e, frame) and _hits(e, camera_id)
    ]


def down(events, frame, camera_id):
    """Crashed, or in the down (even) phase of a flap window."""
    if _active(events, FaultKind.CAMERA_CRASH, frame, camera_id):
        return True
    for e in _active(events, FaultKind.CAMERA_FLAP, frame, camera_id):
        period = max(1, int(e.magnitude))
        if ((frame - e.start_frame) // period) % 2 == 0:
            return True
    return False


def scheduler_down(events, frame):
    """A crash ends at its duration, the first later rejoin, or never."""
    rejoins = sorted(
        e.start_frame for e in events
        if e.kind is FaultKind.SCHEDULER_REJOIN
    )
    for e in events:
        if e.kind is not FaultKind.SCHEDULER_CRASH:
            continue
        if e.duration is not None:
            end = e.start_frame + e.duration
        else:
            end = next((r for r in rejoins if r > e.start_frame), None)
        if frame >= e.start_frame and (end is None or frame < end):
            return True
    return False


def drift_lag(events, frame, camera_id):
    lag = 0
    for e in _active(events, FaultKind.CLOCK_DRIFT, frame, camera_id):
        lag += int(math.floor(e.magnitude * (frame - e.start_frame + 1)))
    return min(lag, DRIFT_LAG_CAP)


def fade_factor(events, frame, camera_id):
    factor = 1.0
    for e in _active(events, FaultKind.QUALITY_FADE, frame, camera_id):
        ramp = min(1.0, (frame - e.start_frame + 1) / float(FADE_RAMP_FRAMES))
        factor *= 1.0 + (e.magnitude - 1.0) * ramp
    return factor


def gpu_factor(events, frame, camera_id):
    factor = 1.0
    for e in _active(events, FaultKind.GPU_SLOWDOWN, frame, camera_id):
        factor *= e.magnitude
    return factor


def combined_prob(events, kind, frame, camera_id):
    """``1 - prod(1 - p)`` over the open events of one kind."""
    survive = 1.0
    for e in _active(events, kind, frame, camera_id):
        survive *= 1.0 - e.magnitude
    return 1.0 - survive


def extra_delay_ms(events, frame, camera_id):
    return sum(
        e.magnitude
        for e in _active(events, FaultKind.LINK_DELAY, frame, camera_id)
    )


def frame_faults(events, frame, camera_ids):
    """The full per-camera view of one frame, one camera at a time."""
    cams = sorted(camera_ids)

    def having(kind):
        return frozenset(
            c for c in cams if _active(events, kind, frame, c)
        )

    partitioned = having(FaultKind.PARTITION)
    link = {}
    for cam in cams:
        if cam in partitioned:
            loss = 1.0
        else:
            loss = combined_prob(events, FaultKind.LINK_LOSS, frame, cam)
        delay = extra_delay_ms(events, frame, cam)
        wire = [combined_prob(events, k, frame, cam) for k in WIRE_KINDS]
        if loss > 0.0 or delay > 0.0 or any(p > 0.0 for p in wire):
            link[cam] = LinkFault(
                loss_prob=loss,
                extra_delay_ms=delay,
                corrupt_prob=wire[0],
                duplicate_prob=wire[1],
                reorder_prob=wire[2],
            )
    gpu = {c: gpu_factor(events, frame, c) for c in cams}
    lags = {c: drift_lag(events, frame, c) for c in cams}
    fade = {c: fade_factor(events, frame, c) for c in cams}
    return FrameFaults(
        frame=frame,
        down=frozenset(c for c in cams if down(events, frame, c)),
        partitioned=partitioned,
        gpu_factor={c: x for c, x in gpu.items() if x != 1.0},
        link_faults=link,
        started=tuple(e for e in events if e.start_frame == frame),
        scheduler_down=scheduler_down(events, frame),
        bursting=having(FaultKind.INGEST_BURST),
        sched_partitioned=having(FaultKind.SCHEDULER_PARTITION),
        frozen=having(FaultKind.SENSOR_FREEZE),
        drift_lags={c: lag for c, lag in lags.items() if lag > 0},
        fade={c: x for c, x in fade.items() if x != 1.0},
    )


def max_drift_lag(events, n_frames):
    """The largest lag any camera reaches on any frame of the run."""
    cams = {
        e.camera_id for e in events if e.kind is FaultKind.CLOCK_DRIFT
    }
    return max(
        (drift_lag(events, f, c) for f in range(n_frames) for c in cams),
        default=0,
    )
