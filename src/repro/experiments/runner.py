"""Run every experiment and emit a single report.

``python -m repro report`` calls :func:`run_all`, which regenerates the
paper's figures/tables (plus the ablations and the fault and ingest
studies) as text.

The heavy lifting lives in :mod:`repro.experiments.parallel`: each
section is registered there as a job grid and a deterministic merge.
``run_all(workers=1)`` runs the deduplicated job list inline and
``workers > 1`` fans the same list out over a process pool; the merged
report is byte-identical either way. Both can run against a
content-addressed :class:`~repro.cache.ArtifactCache` so repeated
reports skip model training entirely.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

from repro.cache import ArtifactCache, default_cache_root
from repro.experiments.parallel import (
    FULL_PROFILE,
    SECTION_ORDER,
    ReportProfile,
    run_report_sections,
)
from repro.obs import MetricsRegistry, format_metrics_table

__all__ = ["run_all"]


def _fmt_elapsed(seconds: float) -> str:
    """Adaptive wall-clock format: ms below 0.1 s, seconds above."""
    if seconds < 0.1:
        return f"{seconds * 1e3:.0f}ms"
    return f"{seconds:.1f}s"


def _resolve_cache(
    cache: Union[None, str, ArtifactCache],
    workers: int,
    registry: MetricsRegistry,
) -> Optional[ArtifactCache]:
    if isinstance(cache, ArtifactCache):
        return cache
    if isinstance(cache, str):
        return ArtifactCache(cache, registry=registry)
    if workers > 1:
        # Parallel workers rely on the shared cache to dedupe training.
        return ArtifactCache(default_cache_root(), registry=registry)
    return None


def run_all(
    seed: int = 0,
    out_path: Optional[str] = None,
    *,
    workers: int = 1,
    cache: Union[None, str, ArtifactCache] = None,
    profile: Optional[ReportProfile] = None,
    sections: Optional[Sequence[str]] = None,
    timings: bool = True,
) -> str:
    """Run every experiment; returns (and optionally writes) the report.

    ``workers=1`` runs every section's jobs inline; ``workers > 1`` fans
    the same jobs out over a spawn-context process pool — the merged
    report is byte-identical. ``cache`` (a root path or an
    :class:`ArtifactCache`) enables the content-addressed artifact
    cache; parallel runs always use one so model training is
    deduplicated across workers. ``sections`` selects a subset of report
    sections by name; ``timings=False`` omits the nondeterministic
    wall-clock figures, leaving pure experiment bytes.

    Section wall-clock times are collected in a
    :class:`~repro.obs.registry.MetricsRegistry` and appended as a final
    TIMINGS section, so a slow harness shows up in the report itself.
    """
    if workers < 1:
        raise ValueError("workers must be >= 1")
    profile = profile if profile is not None else FULL_PROFILE
    selected = list(sections) if sections is not None else list(SECTION_ORDER)

    registry = MetricsRegistry()
    cache_obj = _resolve_cache(cache, workers, registry)
    merged = run_report_sections(
        selected, seed, profile=profile, workers=workers,
        cache_root=cache_obj.root if cache_obj is not None else None,
    )
    if cache_obj is not None:
        # Fold job-side cache traffic into the caller-visible cache and
        # registry (every job opens its own handle on the cache root).
        cache_obj.hits += merged.cache_hits
        cache_obj.misses += merged.cache_misses
        if merged.cache_hits:
            registry.counter("cache_hits_total").inc(merged.cache_hits)
        if merged.cache_misses:
            registry.counter("cache_misses_total").inc(merged.cache_misses)
    registry.gauge("experiment_wall_s", section="WARMUP").set(
        merged.warm_elapsed_s
    )

    report_sections: List[str] = []
    for name in selected:
        elapsed = merged.elapsed_s[name]
        registry.gauge("experiment_wall_s", section=name).set(elapsed)
        registry.counter("experiments_total").inc()
        if timings:
            header = f"== {name} ({_fmt_elapsed(elapsed)}) =="
        else:
            header = f"== {name} =="
        report_sections.append(f"{header}\n{merged.bodies[name]}")
    if timings:
        report_sections.append(
            "== TIMINGS ==\n"
            + format_metrics_table(registry, title="harness wall-clock")
        )
    report = "\n\n".join(report_sections)
    if out_path:
        with open(out_path, "w") as f:
            f.write(report + "\n")
    return report
