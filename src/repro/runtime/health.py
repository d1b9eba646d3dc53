"""Camera fleet health: per-camera scoring and quarantine lifecycle.

The paper's scheduler assumes every camera is a truthful, synchronized
peer. Real fleets degrade without dying: a sensor freezes and repeats
its last frame while heartbeating happily, a clock drifts until the
camera schedules against a stale world, a flaky power rail makes a node
leave and rejoin every few frames, a fouled lens fades detection recall.
None of these trip crash handling — the camera keeps talking — yet all
of them poison the cross-camera association and BALB's load balancing.

The :class:`FleetHealthWatchdog` is the scheduler-side defense. Each
frame it fuses four observable signals per camera into a health score
and a small hysteretic state machine::

    ACTIVE -> SUSPECT -> QUARANTINED -> PROBATION -> ACTIVE

* **heartbeat liveness** — is the camera responding at all? Rapid
  liveness *churn* (the flap signature) is tracked separately, so a
  camera that is up this frame but flapping is still unhealthy.
* **frame-content staleness** — a repeated frame-content token is the
  frozen-sensor signature (a live sensor never produces bit-identical
  consecutive frames of a moving scene).
* **timestamp skew** — lag frames beyond the configured tolerance mean
  the camera's clock has drifted off the fleet.
* **report quality** — the fraction of its visible objects a camera
  actually reported on its last key frame; decay is the fade signature.

Everything here is deterministic, RNG-free and picklable, so a
checkpointed run restores the watchdog mid-lifecycle bit-exactly, and
the state machine's hysteresis (consecutive-frame streaks, minimum
quarantine dwell, probation warm-up) guarantees a flapping camera cannot
thrash the scheduler's membership: there is **no** ``QUARANTINED ->
ACTIVE`` edge — readmission always passes through ``PROBATION``.

Membership epochs increase monotonically: every transition that changes
the scheduling membership (quarantine entry/exit, probation entry/exit)
bumps :attr:`FleetHealthWatchdog.membership_epoch`, which the invariant
monitor checks (R6) alongside "no assignment to a QUARANTINED camera"
(R5).
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
from typing import Dict, FrozenSet, List, Mapping, Optional, Sequence
import zlib


class HealthState(enum.Enum):
    """Lifecycle states of one camera in the fleet."""

    ACTIVE = "active"  # full member: reports, receives assignments
    SUSPECT = "suspect"  # unhealthy signals; still a full member
    QUARANTINED = "quarantined"  # out of the fleet; peers cover its region
    PROBATION = "probation"  # readmission warm-up; no shared-object authority


#: Transitions that change the scheduling membership (and bump the
#: membership epoch). ACTIVE <-> SUSPECT is observational only.
_MEMBERSHIP_EDGES = frozenset(
    [
        (HealthState.ACTIVE, HealthState.QUARANTINED),
        (HealthState.SUSPECT, HealthState.QUARANTINED),
        (HealthState.QUARANTINED, HealthState.PROBATION),
        (HealthState.PROBATION, HealthState.QUARANTINED),
        (HealthState.PROBATION, HealthState.ACTIVE),
    ]
)


@dataclass(frozen=True)
class HealthConfig:
    """Thresholds of the watchdog's scoring and state machine.

    The defaults quarantine a frozen or drifting camera within
    ``suspect_after + quarantine_after`` frames of the signal appearing
    and readmit it no sooner than ``min_quarantine_frames +
    probation_frames`` frames after it recovers — small enough to react
    within one scheduling horizon, large enough that one glitchy frame
    changes nothing.
    """

    suspect_after: int = 2  # unhealthy frames before ACTIVE -> SUSPECT
    quarantine_after: int = 3  # further unhealthy frames before quarantine
    clear_after: int = 3  # healthy frames before SUSPECT -> ACTIVE
    min_quarantine_frames: int = 4  # minimum quarantine dwell
    probation_after: int = 2  # healthy frames before QUARANTINED -> PROBATION
    probation_frames: int = 4  # clean probation dwell before readmission
    skew_tolerance_frames: int = 2  # acceptable extra lag
    quality_floor: float = 0.7  # minimum key-frame report quality
    flap_window: int = 12  # frames over which liveness churn is counted
    flap_threshold: int = 3  # liveness transitions in window = flapping
    score_alpha: float = 0.3  # EWMA weight of the newest frame's signals

    def __post_init__(self) -> None:
        for name in ("suspect_after", "quarantine_after", "clear_after",
                     "min_quarantine_frames", "probation_after",
                     "probation_frames", "flap_window", "flap_threshold"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.skew_tolerance_frames < 0:
            raise ValueError("skew_tolerance_frames must be non-negative")
        if not 0.0 < self.quality_floor <= 1.0:
            raise ValueError("quality_floor must be in (0, 1]")
        if not 0.0 < self.score_alpha <= 1.0:
            raise ValueError("score_alpha must be in (0, 1]")


@dataclass(frozen=True)
class HealthSignals:
    """One camera's observable signals for one frame.

    ``quality`` is the fraction of its visible objects the camera
    reported on a key frame; ``None`` between key frames (the watchdog
    carries the last known value forward). ``content_token`` is a hash
    of the camera's frame content (see :func:`content_token`); it is
    ignored while the camera is down.
    """

    alive: bool
    content_token: int = 0
    skew_frames: int = 0
    quality: Optional[float] = None


@dataclass(frozen=True)
class HealthTransition:
    """One state-machine edge taken by one camera."""

    frame: int
    camera_id: int
    previous: HealthState
    state: HealthState
    reason: str
    epoch: int

    @property
    def membership_change(self) -> bool:
        """Does this edge change the scheduling membership?"""
        return (self.previous, self.state) in _MEMBERSHIP_EDGES


@dataclass
class _CameraHealth:
    """Mutable per-camera watchdog record (picklable)."""

    state: HealthState = HealthState.ACTIVE
    score: float = 1.0
    unhealthy_streak: int = 0
    healthy_streak: int = 0
    state_frames: int = 0  # frames spent in the current state
    last_token: Optional[int] = None
    token_repeats: int = 0
    last_alive: bool = True
    flap_marks: List[int] = field(default_factory=list)
    last_quality: Optional[float] = None
    last_reason: str = ""


def content_token(objects: Sequence[object]) -> int:
    """Deterministic content hash of one camera's observed frame.

    Stands in for hashing the raw sensor buffer: a frozen sensor
    repeats bits, so its token repeats; a live sensor watching a moving
    scene does not. Positions are quantized to a tenth of a unit so the
    token tracks actual scene motion, not float noise.
    """
    payload = ";".join(
        f"{o.object_id}:{round(o.x * 10)}:{round(o.y * 10)}"  # type: ignore[attr-defined]
        for o in objects
    )
    return zlib.crc32(payload.encode("ascii"))


class FleetHealthWatchdog:
    """Deterministic fleet-membership state machine over health signals.

    Feed :meth:`observe` once per frame with every camera's
    :class:`HealthSignals`; it returns the transitions taken this frame.
    Pure bookkeeping — no RNG, no spans, no clock — so identical signal
    sequences yield identical transitions and scores.
    """

    def __init__(self, camera_ids: Sequence[int]) -> None:
        if not camera_ids:
            raise ValueError("watchdog needs at least one camera")
        self.config = HealthConfig()
        self._records: Dict[int, _CameraHealth] = {
            cam: _CameraHealth() for cam in sorted(camera_ids)
        }
        self._epoch = 0

    # ------------------------------------------------------------------
    @property
    def membership_epoch(self) -> int:
        """Monotonic count of membership-changing transitions."""
        return self._epoch

    def score_of(self, camera_id: int) -> float:
        return self._records[camera_id].score

    def quarantined(self) -> FrozenSet[int]:
        """Cameras currently out of the scheduling membership."""
        return frozenset(
            cam
            for cam, rec in self._records.items()
            if rec.state is HealthState.QUARANTINED
        )

    def in_probation(self) -> FrozenSet[int]:
        """Cameras readmitted on a warm-up leash."""
        return frozenset(
            cam
            for cam, rec in self._records.items()
            if rec.state is HealthState.PROBATION
        )

    def states(self) -> Dict[int, HealthState]:
        return {cam: rec.state for cam, rec in self._records.items()}

    # ------------------------------------------------------------------
    def observe(
        self, frame: int, signals: Mapping[int, HealthSignals]
    ) -> List[HealthTransition]:
        """Fold one frame of signals into every camera's lifecycle."""
        cfg = self.config
        transitions: List[HealthTransition] = []
        for cam in sorted(self._records):
            rec = self._records[cam]
            sig = signals.get(cam)
            if sig is None:
                continue
            # -- component signals ---------------------------------------
            if sig.alive != rec.last_alive:
                rec.flap_marks.append(frame)
                rec.last_alive = sig.alive
            rec.flap_marks = [
                f for f in rec.flap_marks if f > frame - cfg.flap_window
            ]
            flapping = len(rec.flap_marks) >= cfg.flap_threshold
            if sig.alive:
                if rec.last_token is not None and (
                    sig.content_token == rec.last_token
                ):
                    rec.token_repeats += 1
                else:
                    rec.token_repeats = 0
                rec.last_token = sig.content_token
            stale = rec.token_repeats >= 1
            skewed = sig.skew_frames > cfg.skew_tolerance_frames
            if sig.quality is not None:
                rec.last_quality = sig.quality
            low_quality = (
                rec.last_quality is not None
                and rec.last_quality < cfg.quality_floor
            )
            if not sig.alive:
                reason = "heartbeat"
            elif flapping:
                reason = "flap"
            elif stale:
                reason = "stale"
            elif skewed:
                reason = "skew"
            elif low_quality:
                reason = "quality"
            else:
                reason = ""
            healthy = not reason
            # -- fused score (EWMA; observability + monotonicity) --------
            quality_part = 1.0
            if rec.last_quality is not None:
                quality_part = min(
                    1.0, rec.last_quality / cfg.quality_floor
                )
            instant = (
                0.4 * (1.0 if sig.alive and not flapping else 0.0)
                + 0.2 * (0.0 if stale else 1.0)
                + 0.2 * (0.0 if skewed else 1.0)
                + 0.2 * quality_part
            )
            rec.score += cfg.score_alpha * (instant - rec.score)
            if healthy:
                rec.healthy_streak += 1
                rec.unhealthy_streak = 0
            else:
                rec.unhealthy_streak += 1
                rec.healthy_streak = 0
                rec.last_reason = reason
            rec.state_frames += 1
            # -- state machine -------------------------------------------
            previous = rec.state
            nxt = previous
            if previous is HealthState.ACTIVE:
                if rec.unhealthy_streak >= cfg.suspect_after:
                    nxt = HealthState.SUSPECT
            elif previous is HealthState.SUSPECT:
                if rec.unhealthy_streak >= (
                    cfg.suspect_after + cfg.quarantine_after
                ):
                    nxt = HealthState.QUARANTINED
                elif rec.healthy_streak >= cfg.clear_after:
                    nxt = HealthState.ACTIVE
            elif previous is HealthState.QUARANTINED:
                # Hysteresis: a quarantined camera must dwell, then show
                # sustained health, and even then only reaches PROBATION.
                if (
                    rec.state_frames >= cfg.min_quarantine_frames
                    and rec.healthy_streak >= cfg.probation_after
                ):
                    nxt = HealthState.PROBATION
            elif previous is HealthState.PROBATION:
                if rec.unhealthy_streak >= 1:
                    nxt = HealthState.QUARANTINED
                elif rec.state_frames >= cfg.probation_frames:
                    nxt = HealthState.ACTIVE
            if nxt is previous:
                continue
            rec.state = nxt
            rec.state_frames = 0
            if nxt is HealthState.ACTIVE:
                edge_reason = "readmitted"
            elif nxt is HealthState.PROBATION:
                edge_reason = "probation"
            else:
                edge_reason = rec.last_reason or reason or "unhealthy"
            if (previous, nxt) in _MEMBERSHIP_EDGES:
                self._epoch += 1
            transitions.append(
                HealthTransition(
                    frame=frame,
                    camera_id=cam,
                    previous=previous,
                    state=nxt,
                    reason=edge_reason,
                    epoch=self._epoch,
                )
            )
        return transitions
