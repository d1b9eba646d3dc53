"""Device substrate: Jetson catalogue, latency models, profiling, GPU sim."""

from repro.devices.gpu import (
    Batch,
    ExecutionRecord,
    GPUExecutor,
    greedy_plan,
)
from repro.devices.latency import GPUSpec, LatencyModel
from repro.devices.profiler import DeviceProfile, profile_device
from repro.devices.profiles import (
    DEVICE_CATALOGUE,
    JETSON_AGX_XAVIER,
    JETSON_NANO,
    JETSON_TX2,
    JETSON_XAVIER_NX,
    DeviceType,
    latency_model_for,
)

__all__ = [
    "GPUSpec",
    "LatencyModel",
    "DeviceType",
    "DEVICE_CATALOGUE",
    "JETSON_NANO",
    "JETSON_TX2",
    "JETSON_XAVIER_NX",
    "JETSON_AGX_XAVIER",
    "latency_model_for",
    "DeviceProfile",
    "profile_device",
    "Batch",
    "ExecutionRecord",
    "GPUExecutor",
    "greedy_plan",
]
