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
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

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

#: Per-message probabilities, in :class:`~repro.net.link.LinkFault` order.
_PROB_KINDS = (FaultKind.LINK_LOSS,) + _WIRE_KINDS

#: Kinds that put the cameras they hit into a set of one frame.
_SET_KINDS = (FaultKind.CAMERA_CRASH, FaultKind.PARTITION,
              FaultKind.SCHEDULER_PARTITION, FaultKind.SENSOR_FREEZE,
              FaultKind.INGEST_BURST)

#: Kinds whose per-camera values multiply in schedule order.
_PRODUCT_KINDS = _PROB_KINDS + (FaultKind.GPU_SLOWDOWN,
                                FaultKind.QUALITY_FADE)


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
        if not math.isfinite(self.magnitude):
            raise ValueError(
                f"{self.kind.value} magnitude must be finite; got "
                f"{self.magnitude!r}"
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

    events: Tuple[FaultEvent, ...]
    #: Each event paired with its exclusive end frame (``None`` = never
    #: ends), in schedule order; derived from ``events``, never pickled.
    _windows: Tuple[Tuple[FaultEvent, Optional[int]], ...]

    def __init__(self, events: Sequence[FaultEvent] = ()) -> None:
        self._load(tuple(sorted(events, key=lambda e: (
            e.start_frame,
            e.kind.value,
            -1 if e.camera_id is None else e.camera_id,
        ))))

    def __getstate__(self) -> Dict[str, Tuple[FaultEvent, ...]]:
        # Only the events are state: the pickle (and so every checkpoint,
        # job fingerprint and cache key holding a schedule) stays the
        # same bytes it was before the windows were derived.
        return {"events": self.events}

    def __setstate__(self, state: Dict[str, Tuple[FaultEvent, ...]]) -> None:
        self._load(state["events"])

    def _load(self, events: Tuple[FaultEvent, ...]) -> None:
        """Keep the sorted ``events`` and pair each with its end frame.

        A ``SCHEDULER_CRASH`` without a duration ends at the first
        ``SCHEDULER_REJOIN`` after its start, or never. A rejoin is
        instantaneous: its window is empty, so it only ever shows up in
        :attr:`FrameFaults.started`.
        """
        self.events = events
        rejoins = [
            e.start_frame for e in events
            if e.kind is FaultKind.SCHEDULER_REJOIN
        ]
        windows = []
        for e in events:
            end = e.end_frame
            if e.kind is FaultKind.SCHEDULER_REJOIN:
                end = e.start_frame
            elif end is None and e.kind is FaultKind.SCHEDULER_CRASH:
                end = next((r for r in rejoins if r > e.start_frame), None)
            windows.append((e, end))
        self._windows = tuple(windows)

    def __len__(self) -> int:
        return len(self.events)

    def __bool__(self) -> bool:
        return bool(self.events)

    # ------------------------------------------------------------------
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

    def max_drift_lag(self, n_frames: int) -> int:
        """Largest drift lag any camera can reach within ``n_frames``.

        The pipeline sizes its world-history buffer from this before the
        run starts, so drifting cameras always find their lagged view. A
        camera's lag only grows while a drift window is open, so it peaks
        on the last in-run frame of one of its windows.
        """
        worst = 0
        for event, end in self._windows:
            cam = event.camera_id
            if event.kind is not FaultKind.CLOCK_DRIFT or cam is None:
                continue
            last = n_frames - 1 if end is None else min(n_frames, end) - 1
            if last >= event.start_frame:
                worst = max(worst, self.at(last, [cam]).drift_lags.get(cam, 0))
        return worst

    # ------------------------------------------------------------------
    def at(self, frame: int, camera_ids: Sequence[int]) -> FrameFaults:
        """Resolve the full per-camera fault state of one frame.

        One walk over the open windows, in schedule order. An event hits
        every rig camera when it names none, its own camera when that is
        in the rig, and nothing otherwise; values combine per camera in
        schedule order:

        * GPU factors and fade ramps multiply; delays sum (from ``0``,
          as :func:`sum` does);
        * loss and the wire kinds compose as ``1 - prod(1 - p)``, and a
          partitioned camera's loss is 1.0 (unreachable both ways);
        * each ``CLOCK_DRIFT`` adds ``floor(rate * elapsed)`` lag frames,
          capped in sum at :data:`DRIFT_LAG_CAP`;
        * a fade ramps linearly from 1.0 to its full magnitude over the
          first :data:`FADE_RAMP_FRAMES` frames of its window, then holds;
        * a ``CAMERA_FLAP`` window alternates leave/join every
          ``magnitude`` frames, opening with a leave: the camera is down
          on even phases.

        Per-camera dicts are built in sorted camera order and leave out
        neutral values (factor 1.0, lag 0, clean link).
        """
        if not self.events:
            return FrameFaults(frame=frame, down=frozenset(),
                               partitioned=frozenset(), gpu_factor={},
                               link_faults={}, started=())
        cams = sorted(camera_ids)
        rig = frozenset(cams)
        started: List[FaultEvent] = []
        scheduler_down = False
        hit: Dict[FaultKind, Set[int]] = {kind: set() for kind in _SET_KINDS}
        product: Dict[FaultKind, Dict[int, float]] = {
            kind: {} for kind in _PRODUCT_KINDS
        }
        delay: Dict[int, float] = {}
        lag: Dict[int, int] = {}
        for event, end in self._windows:
            start = event.start_frame
            if start > frame:
                break  # windows are in start order: nothing later is open
            if start == frame:
                started.append(event)
            if end is not None and frame >= end:
                continue
            kind = event.kind
            cam = event.camera_id
            if kind is FaultKind.SCHEDULER_CRASH:
                scheduler_down = True
                continue
            targets = cams if cam is None else [cam] if cam in rig else []
            m = event.magnitude
            elapsed = frame - start + 1
            if kind is FaultKind.CAMERA_FLAP:
                if (frame - start) // int(m) % 2 == 0:
                    hit[FaultKind.CAMERA_CRASH].update(targets)
            elif kind in hit:
                hit[kind].update(targets)
            elif kind is FaultKind.LINK_DELAY:
                for c in targets:
                    delay[c] = delay.get(c, 0) + m
            elif kind is FaultKind.CLOCK_DRIFT:
                for c in targets:
                    lag[c] = lag.get(c, 0) + int(math.floor(m * elapsed))
            else:
                if kind is FaultKind.QUALITY_FADE:
                    ramp = min(1.0, elapsed / float(FADE_RAMP_FRAMES))
                    factor = 1.0 + (m - 1.0) * ramp
                elif kind is FaultKind.GPU_SLOWDOWN:
                    factor = m
                else:  # loss and wire kinds: multiply survival
                    factor = 1.0 - m
                acc = product[kind]
                for c in targets:
                    acc[c] = acc.get(c, 1.0) * factor
        partitioned = frozenset(hit[FaultKind.PARTITION])
        gpu = product[FaultKind.GPU_SLOWDOWN]
        fade = product[FaultKind.QUALITY_FADE]
        survive = [product[kind] for kind in _PROB_KINDS]
        link: Dict[int, LinkFault] = {}
        for c in cams:
            loss, corrupt, duplicate, reorder = (
                1.0 - s.get(c, 1.0) for s in survive
            )
            if c in partitioned:
                loss = 1.0
            extra = delay.get(c, 0)
            if loss > 0.0 or extra > 0.0 or corrupt > 0.0 \
                    or duplicate > 0.0 or reorder > 0.0:
                link[c] = LinkFault(
                    loss_prob=loss,
                    extra_delay_ms=extra,
                    corrupt_prob=corrupt,
                    duplicate_prob=duplicate,
                    reorder_prob=reorder,
                )
        return FrameFaults(
            frame=frame,
            down=frozenset(hit[FaultKind.CAMERA_CRASH]),
            partitioned=partitioned,
            gpu_factor={c: gpu[c] for c in cams if gpu.get(c, 1.0) != 1.0},
            link_faults=link,
            started=tuple(started),
            scheduler_down=scheduler_down,
            bursting=frozenset(hit[FaultKind.INGEST_BURST]),
            sched_partitioned=frozenset(hit[FaultKind.SCHEDULER_PARTITION]),
            frozen=frozenset(hit[FaultKind.SENSOR_FREEZE]),
            drift_lags={
                c: min(lag[c], DRIFT_LAG_CAP) for c in cams if lag.get(c, 0) > 0
            },
            fade={c: fade[c] for c in cams if fade.get(c, 1.0) != 1.0},
        )
