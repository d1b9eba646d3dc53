"""Device catalogue: NVIDIA Jetson models used on the paper's testbed.

The paper's testbed mixes Jetson Nano, TX2 and Xavier boards (Table I).
The GPU specs below are calibrated against public YOLOv5s benchmark
figures for those boards (batch-1, 640 px input): Nano ~250 ms,
TX2 ~110 ms, Xavier NX ~55 ms, AGX Xavier ~35 ms — giving the same
relative heterogeneity the scheduler must balance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Sequence, Tuple

from repro.devices.latency import GPUSpec, LatencyModel
from repro.geometry.box import DEFAULT_SIZE_SET


@dataclass(frozen=True)
class DeviceType:
    """A named device model with its GPU spec."""

    name: str
    gpu: GPUSpec


JETSON_NANO = DeviceType(
    name="jetson-nano",
    gpu=GPUSpec(
        compute_ms_per_mpx=560.0,
        kernel_overhead_ms=6.0,
        marginal_batch_fraction=0.22,
        memory_mb=26.0,
        max_batch=8,
    ),
)

JETSON_TX2 = DeviceType(
    name="jetson-tx2",
    gpu=GPUSpec(
        compute_ms_per_mpx=250.0,
        kernel_overhead_ms=4.0,
        marginal_batch_fraction=0.18,
        memory_mb=60.0,
        max_batch=16,
    ),
)

JETSON_XAVIER_NX = DeviceType(
    name="jetson-xavier-nx",
    gpu=GPUSpec(
        compute_ms_per_mpx=120.0,
        kernel_overhead_ms=3.0,
        marginal_batch_fraction=0.15,
        memory_mb=120.0,
        max_batch=24,
    ),
)

JETSON_AGX_XAVIER = DeviceType(
    name="jetson-agx-xavier",
    gpu=GPUSpec(
        compute_ms_per_mpx=75.0,
        kernel_overhead_ms=2.5,
        marginal_batch_fraction=0.12,
        memory_mb=240.0,
        max_batch=32,
    ),
)

DEVICE_CATALOGUE: Dict[str, DeviceType] = {
    d.name: d
    for d in (JETSON_NANO, JETSON_TX2, JETSON_XAVIER_NX, JETSON_AGX_XAVIER)
}


def latency_model_for(
    device: DeviceType,
    size_set: Sequence[int] = DEFAULT_SIZE_SET,
    full_frame: Tuple[int, int] = (1280, 704),
) -> LatencyModel:
    """Build the analytic latency surface for a device type."""
    return LatencyModel(device.gpu, size_set=size_set, full_frame=full_frame)
