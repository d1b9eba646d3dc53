"""Analytic GPU inference latency model.

The paper's scheduler consumes three profiled quantities per camera
``c_i``: the full-frame inference time ``t_i^full``, the per-size batched
inference latency ``t_i^s``, and the batch limit ``B_i^s`` (Section III-A).
On the real testbed these come from profiling YOLOv5 on each Jetson board;
here they come from an analytic model of DNN inference on a small GPU:

    latency(size, batch) = overhead + compute_cost * pixels(size, batch)^gamma

with a *marginal batching cost*: images after the first in a batch cost
only a fraction of the first image's compute, matching the paper's
observation that "the execution time changes only slightly with batching
(before an inflection point is reached)". Past the memory-derived batch
limit, latency grows steeply — the inflection point — so schedulers are
penalized for exceeding the limit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.geometry.box import DEFAULT_SIZE_SET


@dataclass(frozen=True)
class GPUSpec:
    """Parameters of the analytic GPU model.

    ``compute_ms_per_mpx`` is the milliseconds per megapixel of DNN input at
    batch size 1; ``kernel_overhead_ms`` is the fixed per-launch cost;
    ``marginal_batch_fraction`` is the relative cost of each additional
    batched image; ``memory_mb`` bounds the batch limit.
    """

    compute_ms_per_mpx: float
    kernel_overhead_ms: float
    marginal_batch_fraction: float
    memory_mb: float
    max_batch: int = 32

    def __post_init__(self) -> None:
        if self.compute_ms_per_mpx <= 0:
            raise ValueError("compute_ms_per_mpx must be positive")
        if self.kernel_overhead_ms < 0:
            raise ValueError("kernel_overhead_ms must be non-negative")
        if not 0.0 < self.marginal_batch_fraction <= 1.0:
            raise ValueError("marginal_batch_fraction must be in (0, 1]")
        if self.memory_mb <= 0:
            raise ValueError("memory_mb must be positive")
        if self.max_batch < 1:
            raise ValueError("max_batch must be >= 1")


#: Approximate working-set megabytes per megapixel of DNN input
#: (activations dominate; calibrated so a Nano batches ~8 images at 128 px).
_MB_PER_MPX = 180.0


class LatencyModel:
    """Computable latency surface for one device.

    Exposes exactly the quantities the BALB scheduler needs, plus the raw
    ``latency(size, batch)`` surface used by the simulated GPU executor.
    """

    def __init__(
        self,
        spec: GPUSpec,
        size_set: Sequence[int] = DEFAULT_SIZE_SET,
        full_frame: Tuple[int, int] = (1280, 704),
    ) -> None:
        if not size_set:
            raise ValueError("size_set must be non-empty")
        self.spec = spec
        self.size_set = tuple(sorted(size_set))
        self.full_frame = full_frame
        self._batch_limits: Dict[int, int] = {
            s: self._compute_batch_limit(s) for s in self.size_set
        }

    # ------------------------------------------------------------------
    def latency(self, size: int, batch: int) -> float:
        """Latency in ms of one inference launch on ``batch`` images of
        ``size`` x ``size`` pixels. Exceeding the batch limit enters the
        steep post-inflection regime.
        """
        if batch < 1:
            raise ValueError("batch must be >= 1")
        if size <= 0:
            raise ValueError("size must be positive")
        mpx = (size * size) / 1e6
        limit = self._compute_batch_limit(size)
        within = min(batch, limit)
        base = self.spec.compute_ms_per_mpx * mpx
        cost = base * (1.0 + self.spec.marginal_batch_fraction * (within - 1))
        if batch > limit:
            # Past the inflection point each image costs full price plus a
            # growing memory-pressure penalty.
            over = batch - limit
            cost += base * over * (1.5 + 0.25 * over)
        return self.spec.kernel_overhead_ms + cost

    def batch_limit(self, size: int) -> int:
        """``B_i^s``: max images of ``size`` batched in one launch."""
        if size in self._batch_limits:
            return self._batch_limits[size]
        return self._compute_batch_limit(size)

    def full_frame_latency(self) -> float:
        """``t_i^full``: inference time on the full camera frame."""
        w, h = self.full_frame
        mpx = (w * h) / 1e6
        return self.spec.kernel_overhead_ms + self.spec.compute_ms_per_mpx * mpx

    # ------------------------------------------------------------------
    def _compute_batch_limit(self, size: int) -> int:
        mpx = (size * size) / 1e6
        by_memory = int(self.spec.memory_mb / (_MB_PER_MPX * mpx))
        return max(1, min(self.spec.max_batch, by_memory))
