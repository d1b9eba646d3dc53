"""Instance-level scheduling baselines (Section IV-C/D).

* **BALB-Ind** — no cross-camera coordination: every camera tracks every
  object it can see (each object is inspected by all cameras in its
  coverage set, with batching).
* **Full** (every camera inspects every frame in full, latency
  ``t_i^full``) and **Static Partitioning** (mask driven, see
  :func:`repro.core.masks.capacity_owner`) are pipeline policies.
* The ablations of BALB without batch awareness or without the
  coverage-size ordering are :func:`repro.core.balb.balb_central` flags.
"""

from __future__ import annotations

import math
from typing import Dict

from repro.core.problem import MVSInstance


def independent_latencies(
    instance: MVSInstance, include_full_frame: bool = False
) -> Dict[int, float]:
    """Per-camera latency when every camera tracks all objects it sees.

    This is BALB-Ind at the instance level: slicing + batching happen, but
    overlapping objects are redundantly inspected by every covering
    camera.
    """
    out: Dict[int, float] = {}
    for cam in instance.camera_ids:
        profile = instance.profiles[cam]
        counts: Dict[int, int] = {}
        for obj in instance.objects:
            if cam in obj.coverage:
                size = obj.size_on(cam)
                counts[size] = counts.get(size, 0) + 1
        total = profile.t_full if include_full_frame else 0.0
        for size, count in counts.items():
            total += math.ceil(count / profile.batch_limit(size)) * profile.t_size(
                size
            )
        out[cam] = total
    return out
