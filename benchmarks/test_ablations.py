"""Ablation benches for BALB's design choices (DESIGN.md Section 5).

* batch-awareness (Definition 4) on/off,
* coverage-ordered object visiting (Algorithm 1 line 2) on/off,
* distributed stage on/off at the pipeline level (BALB vs BALB-Cen),
* BALB vs the exact optimum on small instances.
"""

import pytest

from repro.experiments.ablations import (
    ablate_batch_awareness,
    ablate_coverage_ordering,
    measure_optimality_gap,
)

from conftest import run_policies


@pytest.mark.benchmark(group="ablations")
def test_ablation_batching(benchmark):
    result = benchmark.pedantic(
        lambda: ablate_batch_awareness(n_trials=30, n_objects=30, seed=0),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nbatch-awareness: with {result.mean_latency_on:.1f} ms, "
        f"without {result.mean_latency_off:.1f} ms "
        f"(degradation {result.degradation:.3f}x)"
    )
    # Removing batch-awareness must not help, and typically hurts.
    assert result.degradation >= 0.999
    assert result.degradation > 1.02


@pytest.mark.benchmark(group="ablations")
def test_ablation_ordering(benchmark):
    result = benchmark.pedantic(
        lambda: ablate_coverage_ordering(n_trials=30, n_objects=30, seed=0),
        rounds=1,
        iterations=1,
    )
    print(
        f"\ncoverage-ordering: with {result.mean_latency_on:.1f} ms, "
        f"without {result.mean_latency_off:.1f} ms "
        f"(degradation {result.degradation:.3f}x)"
    )
    assert result.degradation >= 0.99  # never materially harmful


@pytest.mark.benchmark(group="ablations")
def test_ablation_optimality(benchmark):
    result = benchmark.pedantic(
        lambda: measure_optimality_gap(n_trials=20, n_objects=12, seed=0),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nBALB vs optimal on {result.n_instances} instances: "
        f"mean {result.mean_ratio:.3f}, worst {result.worst_ratio:.3f}"
    )
    assert result.mean_ratio >= 1.0
    assert result.mean_ratio < 1.15  # near-optimal on average
    assert result.worst_ratio < 1.6


@pytest.mark.benchmark(group="ablations")
def test_ablation_distributed_stage(benchmark, trained_by_scenario):
    """Pipeline-level: disabling the distributed stage (BALB-Cen) saves a
    little latency but costs recall in dynamic scenes — the paper's
    argument for running both stages."""
    runs = benchmark.pedantic(
        lambda: run_policies(
            "S3", ("balb", "balb-cen"), trained_by_scenario["S3"]
        ),
        rounds=1,
        iterations=1,
    )
    balb, cen = runs["balb"], runs["balb-cen"]
    print(
        f"\nBALB     : recall {balb.object_recall():.3f}, "
        f"latency {balb.mean_slowest_latency():.1f} ms"
        f"\nBALB-Cen : recall {cen.object_recall():.3f}, "
        f"latency {cen.mean_slowest_latency():.1f} ms"
    )
    assert balb.object_recall() > cen.object_recall()
