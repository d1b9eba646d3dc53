"""Figure 12: object recall of the scheduling policies.

Runs Full / BALB-Ind / BALB-Cen / BALB / SP over each scenario with shared
trained models and identical test worlds, reporting the paper's object
recall metric (an object visible to >= 1 camera counts as detected if any
camera detected it that frame).

Expected shape (paper Section IV-C): tracking-based slicing costs almost
no recall (BALB-Ind ~ Full); BALB-Cen degrades in busy scenes; full BALB
recovers most of the gap; SP is hit hardest by association imperfection.

The per-(scenario, policy) runs and the table live in
:mod:`repro.experiments.parallel` (section ``FIG12``).
"""

from __future__ import annotations

from typing import Tuple

DEFAULT_POLICIES: Tuple[str, ...] = ("full", "balb-ind", "balb-cen", "balb", "sp")
