"""Set up one workload, run timed episodes, and turn them into metrics.

Untraced runs (``trace=False``) report the end-to-end metrics. Traced
runs alternate untraced and traced episodes and report the per-layer
metrics, the traced frame rate and the tracing overhead measured
between the two kinds of episode.
"""

from __future__ import annotations

import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from typing import Dict, List, Optional, Tuple

from perfbench.layers import FrameClock, LayerTracer, Probe
from perfbench.workloads import WORKLOADS, Outcome, ReportWorkload
from repro.runtime.metrics import RunResult

#: Times the set-up is repeated; ``setup_s`` reports the median.
SETUP_REPEATS = 3
#: Fewest episodes per kind (untraced, traced), so repeats can be compared.
MIN_EPISODES = 2

#: The host's speed drifts by 15-25% over tens of seconds on a shared
#: machine, and a whole run slows with it. So a fixed calibration kernel
#: is timed between episodes, and each episode's times are scaled by
#: ``CALIBRATION_REF_MS / calibration`` (the mean of the calibrations
#: before and after it): end-to-end times are wall times at the
#: reference host speed. The kernel is pure interpreter work on a
#: working set that fits any core's L1 cache, so its own speed does not
#: depend on where a process's memory lands. ``raw_metrics`` in the full
#: record keeps the unscaled figures.
CALIBRATION_REF_MS = 2.3


def calibration_ms(repeats: int = 5) -> float:
    """Best of ``repeats`` timings of the calibration kernel, in ms."""
    best = None
    for _ in range(repeats):
        start = time.perf_counter_ns()
        table: Dict[int, int] = {}
        for i in range(20_000):
            key = i * 7919 % 257
            table[key] = table.get(key, 0) + i
        sorted(table.values())
        elapsed = time.perf_counter_ns() - start
        best = elapsed if best is None else min(best, elapsed)
    return best / 1e6


#: (name, unit, better) of every end-to-end metric, in print order.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("frames_per_s", "1/s", "higher"),
    ("frame_ms_p50", "ms", "lower"),
    ("frame_ms_p95", "ms", "lower"),
    ("key_frame_ms_p50", "ms", "lower"),
    ("episode_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MB", "lower"),
)


def _objects_after_step(args: tuple, kwargs: dict, result: object) -> int:
    return len(args[0].objects)


def _size(args: tuple, kwargs: dict, result: object) -> int:
    return len(result)  # type: ignore[arg-type]


def _slices(args: tuple, kwargs: dict, result: object) -> int:
    return result.n_slices  # type: ignore[attr-defined]


def _observations(args: tuple, kwargs: dict, result: object) -> int:
    observations = args[1] if len(args) > 1 else kwargs["observations"]
    return sum(len(obs) for obs in observations.values())


def _retries(args: tuple, kwargs: dict, result: object) -> int:
    return result.attempts - 1  # type: ignore[attr-defined]


def _file_size(args: tuple, kwargs: dict, result: object) -> int:
    return os.path.getsize(args[0] if args else kwargs["path"])


_P = "repro.runtime."

#: The layer boundaries the traced run wraps. Each is called at most a
#: few times per camera per frame; per-track calls are never wrapped.
PROBES: Tuple[Probe, ...] = (
    Probe("world.step_ms", "repro.world.world:World.step",
          counts=(("world.objects", _objects_after_step),)),
    Probe("cameras.project_ms",
          "repro.cameras.projection:FrameProjectionCache.boxes",
          calls="cameras.project_calls"),
    Probe("cameras.project_ms",
          "repro.cameras.projection:FrameProjectionCache.coverage_table",
          calls="cameras.project_calls"),
    Probe("vision.detect_ms",
          "repro.vision.detector:SimulatedDetector.detect_full_frame",
          counts=(("vision.detections", _size),)),
    Probe("vision.detect_ms",
          "repro.vision.detector:SimulatedDetector.detect_regions",
          counts=(("vision.detections", _size),)),
    Probe("vision.new_regions_ms", "repro.vision.flow:find_new_regions"),
    Probe("camera_node.regular_self_ms",
          _P + "camera_node:CameraNode.process_regular_frame",
          counts=(("camera_node.slices", _slices),)),
    Probe("camera_node.key_self_ms",
          _P + "camera_node:CameraNode.process_key_frame"),
    Probe("association.associate_ms",
          "repro.association.matcher:CrossCameraMatcher.associate",
          counts=(("association.observations_in", _observations),
                  ("association.global_objects_out", _size))),
    Probe("association.knn_ms",
          "repro.association.pairwise:PairModel.predict_visible_boxes"),
    Probe("association.knn_ms",
          "repro.association.pairwise:PairModel.predict_visible_batch"),
    Probe("association.knn_ms",
          "repro.association.pairwise:PairModel.predict_boxes"),
    Probe("ml.hungarian_ms", "repro.ml.hungarian:hungarian"),
    Probe("core.balb_ms", "repro.core.balb:balb_central"),
    Probe("scheduler.schedule_self_ms",
          _P + "scheduler_node:CentralScheduler.schedule",
          calls="scheduler.rounds"),
    Probe("net.transfer_ms", "repro.net.link:Link.reliable_transfer",
          calls="net.messages", counts=(("net.retries", _retries),)),
    Probe("net.guard_ms", "repro.net.envelope:ChannelGuard.admit"),
    Probe("control.failover_ms", _P + "failover:FailoverManager.step"),
    Probe("control.failover_ms",
          _P + "failover:FailoverManager.step_partition"),
    Probe("control.health_ms", _P + "health:FleetHealthWatchdog.observe"),
    *(
        Probe("control.invariants_ms", _P + f"invariants:InvariantMonitor.{m}")
        for m in ("observe_issue", "observe_applied", "observe_membership",
                  "observe_frame")
    ),
    Probe("checkpoint.save_ms", "repro.checkpoint:save_checkpoint",
          calls="checkpoint.saves",
          counts=(("checkpoint.bytes", _file_size),)),
    Probe("experiments.sim_ms", _P + "pipeline:run_policy", inclusive=True),
    Probe("experiments.sim_ms", _P + "pipeline:train_models", inclusive=True),
)

#: Per-layer metrics that are not a probe total, with their units.
_DERIVED_UNITS = {
    "experiments.sim_ms": "ms/report",
    "experiments.other_ms": "ms/report",
    "pipeline.other_ms": "ms/frame",
    "trace.frames_per_s": "1/s",
    "trace.overhead_pct": "%",
    "metrics.object_recall": "frac",
    "metrics.modeled_ms": "ms",
}


def per_layer_units() -> Dict[str, str]:
    """Unit of every per-layer metric, in print order."""
    units: Dict[str, str] = {}
    for probe in PROBES:
        units.setdefault(probe.metric, "ms/frame")
        if probe.calls:
            units.setdefault(probe.calls, "count/frame")
        for name, _ in probe.counts:
            units.setdefault(name, "B/frame" if name.endswith("bytes")
                             else "count/frame")
    units.update(_DERIVED_UNITS)
    return units


def _median_setup(workload, seed: int, work_dir: str):
    """Set the workload up ``SETUP_REPEATS`` times; keep the last session."""
    times = []
    session = None
    for _ in range(SETUP_REPEATS):
        session = None  # release the previous session before rebuilding
        start = time.perf_counter()
        session = workload.set_up(seed, work_dir)
        times.append(time.perf_counter() - start)
    return session, statistics.median(times)


class _Episodes:
    """Accumulated figures of one kind (untraced or traced) of episode.

    ``scales`` holds each episode's host-speed factor; wall times and
    frame gaps are kept as measured.
    """

    def __init__(self) -> None:
        self.walls_ns: List[int] = []
        self.scales: List[float] = []
        self.frames: List[int] = []
        self.frame_ns: List[List[int]] = []
        self.key_frame_ns: List[List[int]] = []

    def add(self, wall_ns: int, scale: float, clock: FrameClock) -> None:
        self.walls_ns.append(wall_ns)
        self.scales.append(scale)
        self.frames.append(clock.frames)
        self.frame_ns.append(clock.frame_ns)
        self.key_frame_ns.append(clock.key_frame_ns)

    def frames_per_s(self) -> float:
        """Frames per second over every episode, at reference host speed."""
        scaled_ns = sum(w * s for w, s in zip(self.walls_ns, self.scales))
        return sum(self.frames) / (scaled_ns / 1e9)


def _ms(values_ns: List[int], pct: int) -> float:
    if pct == 50:
        return statistics.median(values_ns) / 1e6
    return statistics.quantiles(values_ns, n=100, method="inclusive")[pct - 1] / 1e6


def run_workload(
    name: str,
    seed: int,
    seconds: float,
    trace: bool,
    work_root: str,
    import_s: float = 0.0,
) -> dict:
    """Run one workload and return its full record (see ``run.py``)."""
    workload = WORKLOADS[name]
    os.makedirs(work_root, exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix=f"{name}-", dir=work_root)
    try:
        session, setup_s = _median_setup(workload, seed, work_dir)
        tracer = LayerTracer(PROBES) if trace else None
        return _measure(workload, session, seconds, tracer, setup_s + import_s)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def _measure(workload, session, seconds, tracer, setup_s) -> dict:
    untraced, traced = _Episodes(), _Episodes()
    digests: List[str] = []
    problems: List[str] = []
    quality: Optional[Tuple[float, float]] = None
    attempted = failed = 0
    ops = workload.ops_per_episode
    start = time.perf_counter()
    calibration = calibration_ms()
    index = 0
    while True:
        use_tracer = tracer is not None and index % 2 == 1
        kind = traced if use_tracer else untraced
        clock = FrameClock(RunResult)
        attempted += ops
        t0 = time.perf_counter_ns()
        try:
            with clock:
                if use_tracer:
                    with tracer:
                        outcome: Outcome = session.episode()
                else:
                    outcome = session.episode()
        except Exception:  # a raise fails the rest of the episode
            traceback.print_exc(file=sys.stderr)
            if isinstance(workload, ReportWorkload):
                failed += ops
            else:
                failed += ops - min(clock.frames, ops)
            problems.append(f"episode {index} raised")
            break
        wall_ns = time.perf_counter_ns() - t0
        previous, calibration = calibration, calibration_ms()
        kind.add(wall_ns, 2 * CALIBRATION_REF_MS / (previous + calibration), clock)
        digests.append(outcome.digest)
        problems.extend(outcome.problems)
        if quality is None and clock.results:
            quality = (
                statistics.fmean(r.object_recall() for r in clock.results),
                statistics.fmean(
                    r.mean_slowest_latency() for r in clock.results
                ),
            )
        index += 1
        enough = len(untraced.walls_ns) >= MIN_EPISODES and (
            tracer is None or len(traced.walls_ns) >= MIN_EPISODES
        )
        # Start no episode that would end after the time is up.
        typical_s = statistics.median(untraced.walls_ns + traced.walls_ns) / 1e9
        if enough and time.perf_counter() - start + typical_s > seconds:
            break

    if len(set(digests)) > 1:
        problems.append(f"repeats disagree: {sorted(set(digests))}")
    record = {
        "workload": workload.name,
        "attempted": attempted,
        "failed": failed,
        "episodes": len(digests),
        "digest": digests[0] if digests else None,
        "problems": problems,
    }
    record["episode_walls_s"] = [w / 1e9 for w in untraced.walls_ns]
    record["episode_scales"] = untraced.scales
    record["episode_frames"] = untraced.frames
    if failed or not untraced.walls_ns:
        record["metrics"] = {}
        return record
    if tracer is None:
        record["metrics"] = _end_to_end(untraced, setup_s, untraced.scales)
        record["raw_metrics"] = _end_to_end(
            untraced, setup_s, [1.0] * len(untraced.scales)
        )
    else:
        record["metrics"] = _per_layer(
            workload, tracer, untraced, traced, quality
        )
    return record


def _end_to_end(
    eps: _Episodes, setup_s: float, scales: List[float]
) -> Dict[str, float]:
    walls = [w * s for w, s in zip(eps.walls_ns, scales)]

    def scaled(per_episode: List[List[int]]) -> List[float]:
        return [g * s for gaps, s in zip(per_episode, scales) for g in gaps]

    frame_ns = scaled(eps.frame_ns)
    return {
        "frames_per_s": sum(eps.frames) / (sum(walls) / 1e9),
        "frame_ms_p50": _ms(frame_ns, 50),
        "frame_ms_p95": _ms(frame_ns, 95),
        "key_frame_ms_p50": _ms(scaled(eps.key_frame_ns), 50),
        "episode_s": statistics.fmean(walls) / 1e9,
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _per_layer(workload, tracer, untraced, traced, quality) -> Dict[str, float]:
    units = per_layer_units()
    frames = sum(traced.frames)
    reports = len(traced.walls_ns) * workload.ops_per_episode
    wall_ns = sum(traced.walls_ns)
    out: Dict[str, float] = {}
    self_ns = 0
    for metric, total in tracer.totals_ns.items():
        if metric == "experiments.sim_ms":
            continue
        self_ns += total
        out[metric] = total / 1e6 / frames
    for metric, count in tracer.counts.items():
        out[metric] = count / frames
    sim_ns = tracer.totals_ns["experiments.sim_ms"]
    out["experiments.sim_ms"] = sim_ns / 1e6 / reports
    out["experiments.other_ms"] = (wall_ns - sim_ns) / 1e6 / reports if (
        isinstance(workload, ReportWorkload)) else 0.0
    # Frame time is the whole episode for a frame workload; inside a
    # report only the time inside a simulation is frame time.
    frame_ns = sim_ns if isinstance(workload, ReportWorkload) else wall_ns
    out["pipeline.other_ms"] = (frame_ns - self_ns) / 1e6 / frames
    out["trace.frames_per_s"] = traced.frames_per_s()
    out["trace.overhead_pct"] = (
        untraced.frames_per_s() / traced.frames_per_s() - 1.0
    ) * 100.0
    recall, modeled = quality if quality else (0.0, 0.0)
    out["metrics.object_recall"] = recall
    out["metrics.modeled_ms"] = modeled
    return {name: out[name] for name in units}
