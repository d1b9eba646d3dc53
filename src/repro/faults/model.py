"""Stochastic fault processes, compiled ahead of time.

A :class:`FaultModel` describes *rates* — crash probability per
camera-frame, steady link loss, thermal-throttling onset rate — and
turns them into a concrete :class:`~repro.faults.schedule.FaultSchedule`
with :meth:`FaultModel.compile`. Compiling up front (rather than drawing
faults during the run) keeps fault randomness out of the simulation's
RNG streams: the same seed always yields the same schedule, and a
zero-rate model compiles to an empty schedule.

Outage/throttle durations are geometric with the configured means, the
standard memoryless failure model.
"""

from __future__ import annotations

from dataclasses import dataclass
import math
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.faults.schedule import FaultEvent, FaultKind, FaultSchedule


@dataclass(frozen=True)
class FaultModel:
    """Rate-based description of an unreliable deployment.

    All ``*_rate`` fields are per camera per frame onset probabilities;
    ``loss_prob`` is a steady per-message loss applied to every channel
    for the whole run. Durations are mean frames of the geometric
    outage/throttle windows.
    """

    crash_rate: float = 0.0
    mean_outage_frames: float = 10.0
    partition_rate: float = 0.0
    mean_partition_frames: float = 8.0
    loss_prob: float = 0.0
    delay_spike_rate: float = 0.0
    delay_ms: float = 50.0
    mean_delay_frames: float = 5.0
    slowdown_rate: float = 0.0
    slowdown_factor: float = 2.0
    mean_slowdown_frames: float = 20.0
    scheduler_crash_rate: float = 0.0
    mean_scheduler_outage_frames: float = 12.0
    burst_rate: float = 0.0
    mean_burst_frames: float = 5.0
    #: Byzantine wire faults: steady per-message probabilities applied
    #: to every channel for the whole run, like ``loss_prob``.
    corrupt_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0
    #: Scheduler partition: per-frame onset probability of a cut that
    #: severs a random camera subset from the primary for a geometric
    #: window (then heals, forcing the split-brain reunite path).
    scheduler_partition_rate: float = 0.0
    mean_scheduler_partition_frames: float = 8.0
    #: Degraded-sensor processes: the camera keeps heartbeating but its
    #: output lies. Onset rates are per camera-frame like ``crash_rate``.
    freeze_rate: float = 0.0
    mean_freeze_frames: float = 10.0
    clock_drift_rate: float = 0.0
    drift_slope: float = 0.5  # lag frames gained per frame while drifting
    mean_drift_frames: float = 15.0
    flap_rate: float = 0.0
    flap_period_frames: float = 2.0  # leave/join phase length
    mean_flap_frames: float = 10.0
    fade_rate: float = 0.0
    fade_factor: float = 8.0  # miss-probability multiplier at full fade
    mean_fade_frames: float = 20.0

    def __post_init__(self) -> None:
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite; got {value!r}")
        for name in _RATE_FIELDS:
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be a probability in [0, 1]")
        for name in _MEAN_FIELDS:
            if getattr(self, name) < 1.0:
                raise ValueError(f"{name} must be >= 1 frame")
        if self.delay_ms < 0:
            raise ValueError("delay_ms must be non-negative")
        if self.slowdown_factor <= 0:
            raise ValueError("slowdown_factor must be positive")
        if self.drift_slope <= 0:
            raise ValueError("drift_slope must be positive")
        if self.flap_period_frames < 1.0:
            raise ValueError("flap_period_frames must be >= 1 frame")
        if self.fade_factor < 1.0:
            raise ValueError("fade_factor must be >= 1")

    @property
    def is_null(self) -> bool:
        """True when no fault can ever fire (compiles to empty)."""
        return all(getattr(self, name) == 0.0 for name in _RATE_FIELDS)

    # ------------------------------------------------------------------
    def compile(
        self, camera_ids: Sequence[int], n_frames: int, seed: int
    ) -> FaultSchedule:
        """Draw a concrete schedule for one run, deterministically.

        Cameras are processed in sorted order and kinds in a fixed
        order, so the schedule depends only on ``(model, camera set,
        n_frames, seed)``. A camera never re-enters a fault kind while a
        previous window of that kind is still open.

        Each process draws after every process that existed before it:
        per-camera faults, then the scheduler crash, then the scheduler
        partition, then the degraded sensors. A model that leaves the
        newer rates at zero therefore compiles to exactly the schedule it
        did before those kinds existed.
        """
        if n_frames < 1:
            raise ValueError("n_frames must be >= 1")
        rng = np.random.default_rng(seed)
        cams = sorted(camera_ids)
        # Steady fleet-wide events consume no RNG, so appending new
        # kinds here never perturbs the drawn processes below.
        events = [
            FaultEvent(kind, 0, duration=n_frames, magnitude=prob)
            for kind, prob in (
                (FaultKind.LINK_LOSS, self.loss_prob),
                (FaultKind.MSG_CORRUPT, self.corrupt_prob),
                (FaultKind.MSG_DUPLICATE, self.duplicate_prob),
                (FaultKind.MSG_REORDER, self.reorder_prob),
            )
            if prob > 0.0
        ]

        def per_camera(
            processes: Sequence[Tuple[FaultKind, float, float, float]],
        ) -> None:
            for cam in cams:
                for kind, rate, mean_frames, magnitude in processes:
                    for start, duration in _windows(
                        rng, rate, mean_frames, n_frames
                    ):
                        events.append(
                            FaultEvent(kind, start, duration, cam, magnitude)
                        )

        per_camera((
            (FaultKind.CAMERA_CRASH, self.crash_rate,
             self.mean_outage_frames, 0.0),
            (FaultKind.PARTITION, self.partition_rate,
             self.mean_partition_frames, 0.0),
            (FaultKind.LINK_DELAY, self.delay_spike_rate,
             self.mean_delay_frames, self.delay_ms),
            (FaultKind.GPU_SLOWDOWN, self.slowdown_rate,
             self.mean_slowdown_frames, self.slowdown_factor),
            # Drawn last per camera so burst-free models compile to
            # exactly the schedules they did before the kind existed.
            (FaultKind.INGEST_BURST, self.burst_rate,
             self.mean_burst_frames, 0.0),
        ))
        for start, duration in _windows(
            rng, self.scheduler_crash_rate,
            self.mean_scheduler_outage_frames, n_frames,
        ):
            events.append(
                FaultEvent(FaultKind.SCHEDULER_CRASH, start, duration)
            )
        # Each scheduler-partition onset cuts a random nonempty camera
        # subset from the primary for one window, then heals: the
        # split-brain stressor. The subset is drawn between two windows.
        for start, duration in _windows(
            rng, self.scheduler_partition_rate,
            self.mean_scheduler_partition_frames, n_frames,
        ):
            k = int(rng.integers(1, len(cams) + 1))
            chosen = rng.choice(len(cams), size=k, replace=False)
            for idx in sorted(int(i) for i in chosen):
                events.append(
                    FaultEvent(FaultKind.SCHEDULER_PARTITION, start,
                               duration, cams[idx])
                )
        per_camera((
            (FaultKind.SENSOR_FREEZE, self.freeze_rate,
             self.mean_freeze_frames, 0.0),
            (FaultKind.CLOCK_DRIFT, self.clock_drift_rate,
             self.mean_drift_frames, self.drift_slope),
            (FaultKind.CAMERA_FLAP, self.flap_rate,
             self.mean_flap_frames, self.flap_period_frames),
            (FaultKind.QUALITY_FADE, self.fade_rate,
             self.mean_fade_frames, self.fade_factor),
        ))
        return FaultSchedule(events)


#: Per-frame onset probabilities and steady per-message probabilities:
#: each lies in [0, 1], and a model with all of them at zero never fires.
_RATE_FIELDS = (
    "crash_rate", "partition_rate", "delay_spike_rate", "slowdown_rate",
    "loss_prob", "scheduler_crash_rate", "burst_rate", "corrupt_prob",
    "duplicate_prob", "reorder_prob", "scheduler_partition_rate",
    "freeze_rate", "clock_drift_rate", "flap_rate", "fade_rate",
)

#: Mean window lengths, in frames (at least one).
_MEAN_FIELDS = (
    "mean_outage_frames", "mean_partition_frames", "mean_delay_frames",
    "mean_slowdown_frames", "mean_scheduler_outage_frames",
    "mean_burst_frames", "mean_scheduler_partition_frames",
    "mean_freeze_frames", "mean_drift_frames", "mean_flap_frames",
    "mean_fade_frames",
)


def _windows(
    rng: np.random.Generator, rate: float, mean_frames: float, n_frames: int
) -> Iterator[Tuple[int, int]]:
    """One onset process: yield ``(start, duration)`` windows in order.

    Each frame outside a window opens one with probability ``rate``; its
    duration is geometric with mean ``mean_frames``, clipped to the run.
    Windows never overlap, and a zero rate draws nothing from ``rng``.
    """
    if rate <= 0.0:
        return
    frame = 0
    while frame < n_frames:
        if rng.random() < rate:
            duration = int(rng.geometric(1.0 / mean_frames))
            duration = max(1, min(duration, n_frames - frame))
            yield frame, duration
            frame += duration
        else:
            frame += 1
