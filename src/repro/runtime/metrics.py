"""Run metrics: object recall, latency statistics, overhead breakdown.

Implements the paper's evaluation metrics:

* **Object recall** (Figure 12): at every frame, a ground-truth object
  visible to at least one camera counts as a true positive if at least one
  camera detected it.
* **Per-frame inference latency** (Figure 13): for each scheduling
  horizon, the mean per-frame YOLO-equivalent inference time of the
  slowest camera (key-frame time averaged with regular frames).
* **Overhead breakdown** (Table II): per-frame maxima across cameras of
  the non-DNN pipeline components, averaged over frames.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, FrozenSet, List

import numpy as np

from repro.obs.trace import SpanRecord


@dataclass
class FrameRecord:
    """Everything measured at one frame."""

    frame_index: int
    is_key_frame: bool
    inference_ms: Dict[int, float]  # per camera
    visible_gt: FrozenSet[int]
    detected_gt: FrozenSet[int]
    overheads_ms: Dict[str, float] = field(default_factory=dict)
    n_slices: Dict[int, int] = field(default_factory=dict)
    #: Objects observable in principle but only from crashed cameras this
    #: frame — unrecoverable coverage, reported separately from misses.
    coverage_lost: FrozenSet[int] = frozenset()

    @property
    def recall_numerator(self) -> int:
        return len(self.visible_gt & self.detected_gt)

    @property
    def recall_denominator(self) -> int:
        return len(self.visible_gt)


@dataclass
class RunResult:
    """Aggregated outcome of one pipeline run."""

    policy: str
    scenario: str
    horizon: int
    frames: List[FrameRecord] = field(default_factory=list)
    #: Measured span forest of the run (empty unless ``config.trace``).
    spans: List[SpanRecord] = field(default_factory=list)
    #: Deterministically ordered metrics-registry snapshot of the run.
    metrics: List[Dict[str, Any]] = field(default_factory=list)

    def add(self, record: FrameRecord) -> None:
        """Append one frame record to the run."""
        self.frames.append(record)

    # ------------------------------------------------------------------
    @property
    def n_frames(self) -> int:
        return len(self.frames)

    def object_recall(self, count_lost_as_missed: bool = False) -> float:
        """Figure 12 metric over the whole run.

        Object-frames whose only observers were crashed cameras are
        excluded from the denominator (they are *coverage loss*, not
        scheduling misses). ``count_lost_as_missed`` folds them back in —
        the "naive" recall a fault-oblivious evaluation would report.
        """
        num = sum(f.recall_numerator for f in self.frames)
        den = sum(f.recall_denominator for f in self.frames)
        if count_lost_as_missed:
            den += sum(len(f.coverage_lost) for f in self.frames)
        return num / den if den else 1.0

    def coverage_loss(self) -> float:
        """Fraction of observable object-frames lost to dead cameras.

        Zero on fault-free runs. The denominator counts every
        object-frame that *some* camera (live or dead) could observe.
        """
        lost = sum(len(f.coverage_lost) for f in self.frames)
        den = sum(f.recall_denominator for f in self.frames) + lost
        return lost / den if den else 0.0

    def mean_slowest_latency(self) -> float:
        """Figure 13 metric: per-horizon slowest-camera mean, averaged.

        For each scheduling horizon, compute each camera's mean per-frame
        inference time (key + regular frames averaged), take the slowest
        camera, then average across horizons.
        """
        if not self.frames:
            return 0.0
        horizon_values: List[float] = []
        for start in range(0, len(self.frames), self.horizon):
            chunk = self.frames[start : start + self.horizon]
            per_cam: Dict[int, List[float]] = {}
            for f in chunk:
                for cam, ms in f.inference_ms.items():
                    per_cam.setdefault(cam, []).append(ms)
            if per_cam:
                horizon_values.append(
                    max(float(np.mean(v)) for v in per_cam.values())
                )
        return float(np.mean(horizon_values)) if horizon_values else 0.0

    def per_camera_mean_latency(self) -> Dict[int, float]:
        """Mean per-frame inference ms per camera over the run."""
        acc: Dict[int, List[float]] = {}
        for f in self.frames:
            for cam, ms in f.inference_ms.items():
                acc.setdefault(cam, []).append(ms)
        return {cam: float(np.mean(v)) for cam, v in acc.items()}

    def overhead_breakdown(self) -> Dict[str, float]:
        """Table II: mean per-frame overhead by component, plus total."""
        keys: set = set()
        for f in self.frames:
            keys.update(f.overheads_ms)
        breakdown = {
            key: float(np.mean([f.overheads_ms.get(key, 0.0) for f in self.frames]))
            for key in sorted(keys)
        }
        breakdown["total"] = float(sum(breakdown.values()))
        return breakdown

    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """``{span_name: {count, total_ms, mean_ms}}`` over the trace."""
        acc: Dict[str, List[float]] = {}
        for span in self.spans:
            acc.setdefault(span.name, []).append(span.duration_ms)
        return {
            name: {
                "count": float(len(v)),
                "total_ms": float(sum(v)),
                "mean_ms": float(sum(v) / len(v)),
            }
            for name, v in acc.items()
        }

    def measured_stage_breakdown(self) -> Dict[str, float]:
        """Mean *measured* wall-clock per frame by pipeline stage (ms).

        The observed counterpart of :meth:`overhead_breakdown`, from the
        span trace: central stage, distributed stage and the whole frame.
        Empty when the run was not traced.
        """
        if not self.spans or not self.frames:
            return {}
        totals = self.span_totals()
        n = len(self.frames)
        out: Dict[str, float] = {}
        for stage, span_name in (
            ("central", "central_stage"),
            ("distributed", "distributed_stage"),
            ("frame", "frame"),
        ):
            if span_name in totals:
                out[stage] = totals[span_name]["total_ms"] / n
        return out


def speedup_vs(baseline: RunResult, improved: RunResult) -> float:
    """Multiplicative latency speedup of ``improved`` over ``baseline``."""
    lat = improved.mean_slowest_latency()
    if lat <= 0:
        raise ValueError("improved run has non-positive latency")
    return baseline.mean_slowest_latency() / lat
