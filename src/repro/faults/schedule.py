"""Scripted fault events and their per-frame runtime view.

A :class:`FaultSchedule` is an immutable list of :class:`FaultEvent`
windows over the frame index axis. The pipeline asks it once per frame
for a :class:`FrameFaults` snapshot — who is down, who is partitioned,
what each camera's link loss/delay and GPU slowdown are — and for the
events *starting* at that frame, which it emits as trace spans. A
fault-free run carries an empty schedule, whose every frame is empty.
"""

from __future__ import annotations

from dataclasses import dataclass, field
import enum
import math
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.net.link import LinkFault

#: Hard ceiling on clock-drift lag, in frames. Bounds the world-history
#: depth the pipeline must retain no matter how long a drift window runs.
DRIFT_LAG_CAP = 12

#: Frames over which a quality fade ramps from 1.0 to its full factor.
FADE_RAMP_FRAMES = 10


class FaultKind(enum.Enum):
    """The fault taxonomy the runtime knows how to degrade under."""

    CAMERA_CRASH = "camera_crash"  # node stops processing frames entirely
    PARTITION = "partition"  # node runs, but cannot reach the scheduler
    LINK_LOSS = "link_loss"  # probabilistic message loss on the channel
    LINK_DELAY = "link_delay"  # additive per-message latency spike (ms)
    GPU_SLOWDOWN = "gpu_slowdown"  # thermal throttling: latency multiplier
    SCHEDULER_CRASH = "scheduler_crash"  # central node stops scheduling
    SCHEDULER_REJOIN = "scheduler_rejoin"  # central node comes back (instant)
    INGEST_BURST = "ingest_burst"  # frame arrivals stall, then bunch up
    SCHEDULER_PARTITION = "scheduler_partition"  # cameras cut off from primary
    MSG_CORRUPT = "msg_corrupt"  # in-flight bit damage (checksum rejects)
    MSG_DUPLICATE = "msg_duplicate"  # wire delivers a second copy
    MSG_REORDER = "msg_reorder"  # wire delivers out of order
    SENSOR_FREEZE = "sensor_freeze"  # heartbeats fine, repeats its last frame
    CLOCK_DRIFT = "clock_drift"  # per-camera lag grows over the window
    CAMERA_FLAP = "camera_flap"  # rapid leave/join membership churn
    QUALITY_FADE = "quality_fade"  # detector recall decays (lens fouling)


#: Degraded-sensor kinds: the camera keeps talking but lies. These arm
#: the fleet-health watchdog rather than the crash/partition machinery.
_SENSOR_KINDS = (FaultKind.SENSOR_FREEZE, FaultKind.CLOCK_DRIFT,
                 FaultKind.CAMERA_FLAP, FaultKind.QUALITY_FADE)

#: Kinds that require a concrete camera id (link faults may be fleet-wide).
_CAMERA_REQUIRED = (FaultKind.CAMERA_CRASH, FaultKind.PARTITION,
                    FaultKind.GPU_SLOWDOWN) + _SENSOR_KINDS

#: Kinds affecting the central node itself: never bound to a camera.
_SCHEDULER_KINDS = (FaultKind.SCHEDULER_CRASH, FaultKind.SCHEDULER_REJOIN)

#: Byzantine wire faults: per-message probabilities, like LINK_LOSS.
_WIRE_KINDS = (FaultKind.MSG_CORRUPT, FaultKind.MSG_DUPLICATE,
               FaultKind.MSG_REORDER)


@dataclass(frozen=True)
class FaultEvent:
    """One fault window: ``kind`` on ``camera_id`` over frame range.

    ``duration`` is in frames; ``None`` means "until the end of the run".
    ``magnitude`` is kind-specific: loss probability for ``LINK_LOSS``,
    extra milliseconds for ``LINK_DELAY``, latency multiplier for
    ``GPU_SLOWDOWN``; unused (0.0) for crash/partition.
    ``camera_id=None`` applies a link fault to every channel.
    """

    kind: FaultKind
    start_frame: int
    duration: Optional[int] = None
    camera_id: Optional[int] = None
    magnitude: float = 0.0

    def __post_init__(self) -> None:
        if self.start_frame < 0:
            raise ValueError("start_frame must be non-negative")
        if self.duration is not None and self.duration < 1:
            raise ValueError("duration must be >= 1 frame (or None)")
        if self.camera_id is None and self.kind in _CAMERA_REQUIRED:
            raise ValueError(f"{self.kind.value} events need a camera_id")
        if self.camera_id is not None and self.kind in _SCHEDULER_KINDS:
            raise ValueError(
                f"{self.kind.value} affects the central node; camera_id "
                "must be None"
            )
        if self.kind is FaultKind.SCHEDULER_REJOIN and self.duration is not None:
            raise ValueError(
                "scheduler_rejoin is instantaneous; it takes no duration"
            )
        if self.kind is FaultKind.LINK_LOSS and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError("link_loss magnitude is a probability in [0, 1]")
        if self.kind in _WIRE_KINDS and not 0.0 <= self.magnitude <= 1.0:
            raise ValueError(
                f"{self.kind.value} magnitude is a probability in [0, 1]"
            )
        if self.kind is FaultKind.LINK_DELAY and self.magnitude < 0:
            raise ValueError("link_delay magnitude (ms) must be non-negative")
        if self.kind is FaultKind.GPU_SLOWDOWN and self.magnitude <= 0:
            raise ValueError("gpu_slowdown magnitude (factor) must be positive")
        if self.kind is FaultKind.CLOCK_DRIFT and self.magnitude <= 0:
            raise ValueError(
                "clock_drift magnitude (lag frames gained per frame) must "
                "be positive"
            )
        if self.kind is FaultKind.CAMERA_FLAP and self.magnitude < 1:
            raise ValueError(
                "camera_flap magnitude (phase period in frames) must be >= 1"
            )
        if self.kind is FaultKind.QUALITY_FADE and self.magnitude < 1:
            raise ValueError(
                "quality_fade magnitude (miss-probability multiplier) must "
                "be >= 1"
            )

    @property
    def end_frame(self) -> Optional[int]:
        """Exclusive end of the window (``None`` = open-ended)."""
        if self.duration is None:
            return None
        return self.start_frame + self.duration

    def active_at(self, frame: int) -> bool:
        """Is this event in effect at ``frame``?"""
        if frame < self.start_frame:
            return False
        end = self.end_frame
        return end is None or frame < end

    def applies_to(self, camera_id: int) -> bool:
        """Does this event affect ``camera_id`` (fleet-wide counts)?"""
        return self.camera_id is None or self.camera_id == camera_id


@dataclass(frozen=True)
class FrameFaults:
    """Resolved fault state of one frame, per camera."""

    frame: int
    down: FrozenSet[int]
    partitioned: FrozenSet[int]
    gpu_factor: Dict[int, float]  # camera -> multiplier (absent = 1.0)
    link_faults: Dict[int, LinkFault]  # camera -> loss/delay (absent = clean)
    started: Tuple[FaultEvent, ...]  # events whose window opens this frame
    scheduler_down: bool = False  # central node unavailable this frame
    bursting: FrozenSet[int] = frozenset()  # cameras in an ingest burst
    #: Cameras the *primary scheduler* cannot reach this frame. Unlike
    #: ``partitioned`` (camera cut off from everyone), these cameras can
    #: still talk to a standby on their side of the cut — the substrate
    #: of the split-brain scenario.
    sched_partitioned: FrozenSet[int] = frozenset()
    #: Cameras whose sensor repeats its last frame (still heartbeating).
    frozen: FrozenSet[int] = frozenset()
    #: Extra lag frames accumulated by drifting clocks (absent = 0).
    drift_lags: Dict[int, int] = field(default_factory=dict)
    #: Detector miss-probability multipliers from quality fades
    #: (absent = 1.0).
    fade: Dict[int, float] = field(default_factory=dict)

    @property
    def any_active(self) -> bool:
        return bool(
            self.down or self.partitioned or self.gpu_factor
            or self.link_faults or self.started or self.scheduler_down
            or self.bursting or self.sched_partitioned
            or self.frozen or self.drift_lags or self.fade
        )


class FaultSchedule:
    """An immutable set of fault events, queried frame by frame."""

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self.events: Tuple[FaultEvent, ...] = tuple(
            sorted(
                events,
                key=lambda e: (
                    e.start_frame,
                    e.kind.value,
                    -1 if e.camera_id is None else e.camera_id,
                ),
            )
        )

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------
    def down_cameras(self, frame: int) -> FrozenSet[int]:
        """Cameras crashed (not processing at all) at ``frame``.

        Includes the down phases of ``CAMERA_FLAP`` windows: a flapping
        camera alternates leave/join every ``magnitude`` frames, opening
        with a leave, which is exactly the churn that thrashes naive
        membership handling.
        """
        crashed = set(
            e.camera_id
            for e in self.events
            if e.kind is FaultKind.CAMERA_CRASH
            and e.active_at(frame)
            and e.camera_id is not None
        )
        for e in self.events:
            if (
                e.kind is FaultKind.CAMERA_FLAP
                and e.active_at(frame)
                and e.camera_id is not None
            ):
                period = max(1, int(e.magnitude))
                if ((frame - e.start_frame) // period) % 2 == 0:
                    crashed.add(e.camera_id)
        return frozenset(crashed)

    def partitioned_cameras(self, frame: int) -> FrozenSet[int]:
        """Cameras running but cut off from the scheduler at ``frame``."""
        return frozenset(
            e.camera_id
            for e in self.events
            if e.kind is FaultKind.PARTITION
            and e.active_at(frame)
            and e.camera_id is not None
        )

    def scheduler_partitioned_cameras(
        self, frame: int, camera_ids: Sequence[int]
    ) -> FrozenSet[int]:
        """Cameras the primary scheduler cannot reach at ``frame``.

        A ``SCHEDULER_PARTITION`` event with ``camera_id=None`` cuts the
        whole fleet; a camera-scoped one cuts that camera. The cut side
        can still reach a standby among themselves, so this is the
        split-brain substrate rather than plain unreachability.
        """
        cut = set()
        for e in self.events:
            if e.kind is not FaultKind.SCHEDULER_PARTITION:
                continue
            if not e.active_at(frame):
                continue
            if e.camera_id is None:
                cut.update(camera_ids)
            else:
                cut.add(e.camera_id)
        return frozenset(cut) & frozenset(camera_ids)

    @property
    def has_scheduler_faults(self) -> bool:
        """Can any event change who holds central-scheduling duty?

        Covers crash/rejoin of the central node *and* scheduler
        partitions — a cut camera subset may elect its own leader, so
        partitions arm the failover machinery too.
        """
        return any(
            e.kind in _SCHEDULER_KINDS
            or e.kind is FaultKind.SCHEDULER_PARTITION
            for e in self.events
        )

    @property
    def has_scheduler_partitions(self) -> bool:
        """Does any event cut cameras off from the primary scheduler?"""
        return any(
            e.kind is FaultKind.SCHEDULER_PARTITION for e in self.events
        )

    @property
    def has_ingest_bursts(self) -> bool:
        """Does any event stall frame ingest?

        Bursts are what make the ingest edge observable: only runs whose
        plan has one export the edge's ledger counters.
        """
        return any(
            e.kind is FaultKind.INGEST_BURST for e in self.events
        )

    @property
    def has_sensor_faults(self) -> bool:
        """Can any event degrade a sensor without killing the camera?

        Freeze/drift/flap/fade events arm the fleet-health watchdog,
        which exports health gauges and can suspect a camera on report
        quality; a plan without them leaves the watchdog unarmed, so
        fault-free golden traces stay byte-identical.
        """
        return any(e.kind in _SENSOR_KINDS for e in self.events)

    def frozen_cameras(self, frame: int) -> FrozenSet[int]:
        """Cameras whose sensor repeats its last frame at ``frame``."""
        return frozenset(
            e.camera_id
            for e in self.events
            if e.kind is FaultKind.SENSOR_FREEZE
            and e.active_at(frame)
            and e.camera_id is not None
        )

    def drift_lag(self, frame: int, camera_id: int) -> int:
        """Extra lag frames a drifting clock has accumulated at ``frame``.

        Each active ``CLOCK_DRIFT`` event contributes
        ``floor(rate * elapsed)`` lag frames, where ``rate`` is its
        magnitude; the sum is capped at :data:`DRIFT_LAG_CAP` so history
        depth stays bounded.
        """
        lag = 0
        for e in self.events:
            if (
                e.kind is FaultKind.CLOCK_DRIFT
                and e.active_at(frame)
                and e.camera_id == camera_id
            ):
                lag += int(math.floor(e.magnitude * (frame - e.start_frame + 1)))
        return min(lag, DRIFT_LAG_CAP)

    def max_drift_lag(self, n_frames: int) -> int:
        """Largest drift lag any camera can reach within ``n_frames``.

        The pipeline sizes its world-history buffer from this before the
        run starts, so drifting cameras always find their lagged view.
        """
        worst = 0
        cams = set(
            e.camera_id
            for e in self.events
            if e.kind is FaultKind.CLOCK_DRIFT and e.camera_id is not None
        )
        for cam in cams:
            for e in self.events:
                if e.kind is not FaultKind.CLOCK_DRIFT or e.camera_id != cam:
                    continue
                last = n_frames - 1
                if e.end_frame is not None:
                    last = min(last, e.end_frame - 1)
                if last >= e.start_frame:
                    worst = max(worst, self.drift_lag(last, cam))
        return min(worst, DRIFT_LAG_CAP)

    def fade_factor(self, frame: int, camera_id: int) -> float:
        """Combined detector miss-probability multiplier for one camera.

        A fade ramps linearly from 1.0 to its full magnitude over the
        first :data:`FADE_RAMP_FRAMES` frames of the window — recall
        *decays* rather than falling off a cliff — then holds.
        """
        factor = 1.0
        for e in self.events:
            if (
                e.kind is FaultKind.QUALITY_FADE
                and e.active_at(frame)
                and e.camera_id == camera_id
            ):
                elapsed = frame - e.start_frame + 1
                ramp = min(1.0, elapsed / float(FADE_RAMP_FRAMES))
                factor *= 1.0 + (e.magnitude - 1.0) * ramp
        return factor

    def ingest_bursting(self, frame: int, camera_id: int) -> bool:
        """Is ``camera_id``'s frame ingest stalled by a burst at ``frame``?"""
        return any(
            e.kind is FaultKind.INGEST_BURST
            and e.active_at(frame)
            and e.applies_to(camera_id)
            for e in self.events
        )

    def scheduler_down(self, frame: int) -> bool:
        """Is the central scheduler node crashed at ``frame``?

        A ``SCHEDULER_CRASH`` window ends at its explicit duration, at the
        first ``SCHEDULER_REJOIN`` event after its start, or never (an
        open-ended crash with no rejoin lasts the rest of the run).
        """
        rejoins = sorted(
            e.start_frame
            for e in self.events
            if e.kind is FaultKind.SCHEDULER_REJOIN
        )
        for e in self.events:
            if e.kind is not FaultKind.SCHEDULER_CRASH:
                continue
            end = e.end_frame
            if end is None:
                end = next(
                    (r for r in rejoins if r > e.start_frame), None
                )
            if frame >= e.start_frame and (end is None or frame < end):
                return True
        return False

    def gpu_factor(self, frame: int, camera_id: int) -> float:
        """Combined (multiplicative) GPU slowdown for one camera."""
        factor = 1.0
        for e in self.events:
            if (
                e.kind is FaultKind.GPU_SLOWDOWN
                and e.active_at(frame)
                and e.applies_to(camera_id)
            ):
                factor *= e.magnitude
        return factor

    def loss_prob(self, frame: int, camera_id: int) -> float:
        """Combined link-loss probability: ``1 - prod(1 - p_i)``."""
        return self._combined_prob(FaultKind.LINK_LOSS, frame, camera_id)

    def wire_prob(
        self, kind: FaultKind, frame: int, camera_id: int
    ) -> float:
        """Combined per-message probability of one Byzantine wire kind."""
        if kind not in _WIRE_KINDS:
            raise ValueError(f"{kind.value} is not a wire fault kind")
        return self._combined_prob(kind, frame, camera_id)

    def _combined_prob(
        self, kind: FaultKind, frame: int, camera_id: int
    ) -> float:
        survive = 1.0
        for e in self.events:
            if (
                e.kind is kind
                and e.active_at(frame)
                and e.applies_to(camera_id)
            ):
                survive *= 1.0 - e.magnitude
        return 1.0 - survive

    def extra_delay_ms(self, frame: int, camera_id: int) -> float:
        """Summed per-message latency spike for one camera's channel."""
        return sum(
            e.magnitude
            for e in self.events
            if e.kind is FaultKind.LINK_DELAY
            and e.active_at(frame)
            and e.applies_to(camera_id)
        )

    def started_at(self, frame: int) -> Tuple[FaultEvent, ...]:
        """Events whose window opens exactly at ``frame``."""
        return tuple(e for e in self.events if e.start_frame == frame)

    # ------------------------------------------------------------------
    def at(self, frame: int, camera_ids: Sequence[int]) -> FrameFaults:
        """Resolve the full per-camera fault state of one frame."""
        if not self.events:
            return FrameFaults(
                frame=frame,
                down=frozenset(),
                partitioned=frozenset(),
                gpu_factor={},
                link_faults={},
                started=(),
            )
        cams = sorted(camera_ids)
        partitioned = self.partitioned_cameras(frame) & frozenset(cams)
        gpu = {}
        link: Dict[int, LinkFault] = {}
        drift_lags: Dict[int, int] = {}
        fade: Dict[int, float] = {}
        for cam in cams:
            lag = self.drift_lag(frame, cam)
            if lag > 0:
                drift_lags[cam] = lag
            fade_x = self.fade_factor(frame, cam)
            if fade_x != 1.0:
                fade[cam] = fade_x
        for cam in cams:
            factor = self.gpu_factor(frame, cam)
            if factor != 1.0:
                gpu[cam] = factor
            # A partitioned camera is unreachable: total loss both ways.
            loss = 1.0 if cam in partitioned else self.loss_prob(frame, cam)
            delay = self.extra_delay_ms(frame, cam)
            corrupt = self.wire_prob(FaultKind.MSG_CORRUPT, frame, cam)
            duplicate = self.wire_prob(FaultKind.MSG_DUPLICATE, frame, cam)
            reorder = self.wire_prob(FaultKind.MSG_REORDER, frame, cam)
            if loss > 0.0 or delay > 0.0 or corrupt > 0.0 \
                    or duplicate > 0.0 or reorder > 0.0:
                link[cam] = LinkFault(
                    loss_prob=loss,
                    extra_delay_ms=delay,
                    corrupt_prob=corrupt,
                    duplicate_prob=duplicate,
                    reorder_prob=reorder,
                )
        return FrameFaults(
            frame=frame,
            down=self.down_cameras(frame) & frozenset(cams),
            partitioned=partitioned,
            gpu_factor=gpu,
            link_faults=link,
            started=self.started_at(frame),
            scheduler_down=self.scheduler_down(frame),
            bursting=frozenset(
                cam for cam in cams if self.ingest_bursting(frame, cam)
            ),
            sched_partitioned=self.scheduler_partitioned_cameras(
                frame, cams
            ),
            frozen=self.frozen_cameras(frame) & frozenset(cams),
            drift_lags=drift_lags,
            fade=fade,
        )
