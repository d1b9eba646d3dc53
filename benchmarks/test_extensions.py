"""Benches for the Section V extensions.

EXT-OCC: under inter-object occlusion, redundant assignment (k=2) recovers
recall at bounded latency cost. EXT-BW: min view cover saves uplink
bandwidth vs streaming every camera. EXT-EN: the energy-aware scheduler
never spends more energy than BALB under a loose deadline.
"""

import pytest

from repro.experiments.extensions import (
    bandwidth_study,
    energy_study,
    occlusion_point,
    synchronization_point,
)
from repro.scenarios.aic21 import get_scenario

from conftest import bench_config


@pytest.mark.benchmark(group="extensions")
def test_ext_occlusion_redundancy(benchmark, trained_by_scenario):
    scenario = get_scenario("S3", seed=0)
    (recall_k1, latency_k1), (recall_k2, latency_k2) = benchmark.pedantic(
        lambda: [
            occlusion_point(
                scenario, bench_config(), trained_by_scenario["S3"], k
            )
            for k in (1, 2)
        ],
        rounds=1,
        iterations=1,
    )
    print(
        f"\nEXT-OCC (S3): k=1 recall {recall_k1:.3f} @ "
        f"{latency_k1:.1f} ms | k=2 recall {recall_k2:.3f} @ "
        f"{latency_k2:.1f} ms"
    )
    # Redundancy recovers occlusion losses...
    assert recall_k2 >= recall_k1 - 0.005
    # ...at a bounded latency premium.
    assert latency_k2 / latency_k1 < 1.6


@pytest.mark.benchmark(group="extensions")
def test_ext_bandwidth_cover(benchmark):
    study = benchmark.pedantic(
        lambda: bandwidth_study(n_trials=25, n_objects=15, seed=0),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nEXT-BW: {study.mean_cameras_selected:.1f}/{study.n_cameras} "
        f"cameras, {study.mean_cover_mbps:.1f} / "
        f"{study.all_streams_mbps:.1f} Mbps "
        f"({study.savings_fraction:.0%} saved)"
    )
    assert 0.0 <= study.savings_fraction < 1.0
    assert study.savings_fraction > 0.1
    assert study.mean_cameras_selected < study.n_cameras


@pytest.mark.benchmark(group="extensions")
def test_ext_energy_aware(benchmark):
    study = benchmark.pedantic(
        lambda: energy_study(n_trials=25, n_objects=20, deadline_ms=100.0,
                             seed=0),
        rounds=1,
        iterations=1,
    )
    print(
        f"\nEXT-EN: energy {study.mean_energy_aware_mj:.0f} vs "
        f"{study.mean_energy_balb_mj:.0f} mJ "
        f"({study.energy_savings_fraction:.0%} saved), latency "
        f"{study.mean_latency_aware:.1f} vs {study.mean_latency_balb:.1f} ms"
    )
    assert study.energy_savings_fraction >= 0.0
    # The latency concession stays within the configured deadline regime.
    assert study.mean_latency_aware <= study.deadline_ms


@pytest.mark.benchmark(group="extensions")
def test_ext_synchronization(benchmark, trained_by_scenario):
    scenario = get_scenario("S3", seed=0)
    lags = (0, 2, 5)
    points = benchmark.pedantic(
        lambda: [
            synchronization_point(
                scenario, bench_config(), trained_by_scenario["S3"], lag
            )
            for lag in lags
        ],
        rounds=1,
        iterations=1,
    )
    print("\nEXT-SYNC (S3):")
    for lag, (recall, latency) in zip(lags, points):
        print(f"  lag {lag}: recall {recall:.3f} @ {latency:.1f} ms")
    recalls = [recall for recall, _ in points]
    # Growing skew must not improve recall, and a real drop appears by
    # the largest lag.
    assert recalls[-1] <= recalls[0] + 0.01
    assert recalls[0] - recalls[-1] > 0.0
