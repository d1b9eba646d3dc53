"""Simulated GPU batch executor.

Executes *inference plans* — sequences of same-size batches — against a
device's latency model, with optional run-to-run jitter. This is the
substrate under the per-frame processing loop: a camera node turns its
assigned partial regions into a plan, the executor "runs" it and returns
the elapsed milliseconds. Batches execute sequentially and without
preemption, matching Definition 1 of the paper.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.devices.latency import LatencyModel
from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class Batch:
    """One GPU launch: ``count`` images of ``size`` x ``size`` pixels."""

    size: int
    count: int

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError("size must be positive")
        if self.count < 1:
            raise ValueError("count must be >= 1")


@dataclass(frozen=True)
class ExecutionRecord:
    """Outcome of executing one plan on the simulated GPU."""

    batch_latencies_ms: tuple
    total_ms: float
    n_images: int


class GPUExecutor:
    """Runs inference plans against a latency model.

    ``jitter_std_fraction`` injects multiplicative measurement noise so the
    runtime behaves like real hardware rather than an oracle. The executor
    enforces batch limits: plans exceeding a size's limit raise, because a
    correct scheduler never emits them.

    ``set_slowdown`` models thermal throttling: every executed latency is
    scaled by the current factor, while the scheduler keeps planning with
    the unthrottled offline profile — exactly the mismatch a real
    thermally-limited device exhibits.
    """

    def __init__(
        self,
        model: LatencyModel,
        jitter_std_fraction: float = 0.0,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if jitter_std_fraction < 0:
            raise ValueError("jitter_std_fraction must be non-negative")
        if jitter_std_fraction > 0 and rng is None:
            raise ValueError(
                "a jittered GPUExecutor (jitter_std_fraction > 0) requires "
                "an explicit rng seeded from the run config"
            )
        self.model = model
        self.jitter_std_fraction = jitter_std_fraction
        self._rng = rng
        self.slowdown = 1.0

    def set_slowdown(self, factor: float) -> None:
        """Scale all subsequent executed latencies by ``factor`` (> 0)."""
        if factor <= 0:
            raise ValueError("slowdown factor must be positive")
        self.slowdown = float(factor)

    def execute(self, plan: Sequence[Batch]) -> ExecutionRecord:
        """Execute the batches sequentially; returns latencies and total."""
        with get_tracer().span("gpu.execute", n_batches=len(plan)) as span:
            latencies: List[float] = []
            images = 0
            for batch in plan:
                limit = self.model.batch_limit(batch.size)
                if batch.count > limit:
                    raise ValueError(
                        f"batch of {batch.count} images at size {batch.size} "
                        f"exceeds the device batch limit {limit}"
                    )
                true_ms = self.model.latency(batch.size, batch.count) * self.slowdown
                latencies.append(self._jitter(true_ms))
                images += batch.count
            span.set_tag("n_images", images)
            return ExecutionRecord(
                batch_latencies_ms=tuple(latencies),
                total_ms=float(sum(latencies)),
                n_images=images,
            )

    def execute_full_frame(self) -> float:
        """Run one full-frame inference; returns elapsed ms."""
        with get_tracer().span("gpu.full_frame"):
            return self._jitter(self.model.full_frame_latency() * self.slowdown)

    def _jitter(self, true_ms: float) -> float:
        if self.jitter_std_fraction == 0.0:
            return true_ms
        assert self._rng is not None  # guaranteed by __init__
        factor = 1.0 + self._rng.normal(0.0, self.jitter_std_fraction)
        return max(1e-3, true_ms * factor)


def greedy_plan(counts: dict, model: LatencyModel) -> List[Batch]:
    """Split per-size image counts into limit-respecting launches.

    This is the paper's "optimal batch sequence": same-size images are
    batched greedily, which minimizes the number of launches per size
    (Section III-B).
    """
    plan: List[Batch] = []
    for size in sorted(counts):
        n = counts[size]
        if n < 0:
            raise ValueError("image counts must be non-negative")
        limit = model.batch_limit(size)
        while n > 0:
            take = min(n, limit)
            plan.append(Batch(size=size, count=take))
            n -= take
    return plan
