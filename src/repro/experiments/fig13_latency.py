"""Figure 13: per-frame inference latency and the headline speedups.

Compares the Figure 13 metric — the per-horizon slowest-camera mean
inference time — across Full / BALB-Ind / SP / BALB, and derives the
paper's headline numbers: multiplicative BALB-vs-Full speedups (paper:
6.85x / 6.18x / 2.45x on S1 / S2 / S3) and the BALB-vs-SP advantage
(paper mean 1.88x).

The policy runs are shared with Figure 12; both tables are rendered by
:mod:`repro.experiments.parallel` (section ``FIG13``).
"""

from __future__ import annotations

from typing import Tuple

LATENCY_POLICIES: Tuple[str, ...] = ("full", "balb-ind", "sp", "balb")
