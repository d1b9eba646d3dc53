"""FIG14 bench: scheduling horizon sweep (paper Figure 14).

Regenerates recall and slowest-camera latency for T in {2, 5, 10, 20, 30}
on S1. Paper shape: latency falls monotonically-ish with T (full-frame
cost amortized over more frames) while recall trends downward; T = 10 is
a good trade-off.
"""

import pytest

from repro.experiments.fig14_horizon import horizon_point
from repro.experiments.report import format_table
from repro.scenarios.aic21 import get_scenario

from conftest import bench_config

HORIZONS = (2, 5, 10, 20, 30)


@pytest.mark.benchmark(group="fig14")
def test_fig14_horizon_sweep(benchmark, trained_by_scenario):
    scenario = get_scenario("S1", seed=0)
    rows = benchmark.pedantic(
        lambda: [
            horizon_point(
                scenario, bench_config(), trained_by_scenario["S1"],
                horizon, 200,
            )
            for horizon in HORIZONS
        ],
        rounds=1,
        iterations=1,
    )
    print()
    print(
        format_table(
            ["horizon T", "recall", "slowest-cam ms"],
            [(r.horizon, r.recall, round(r.slowest_camera_ms, 1)) for r in rows],
            title="Figure 14 (S1): horizon length sweep",
        )
    )
    latencies = [r.slowest_camera_ms for r in rows]
    recalls = [r.recall for r in rows]

    # Latency falls sharply as the key-frame cost is amortized.
    assert latencies[0] > latencies[2] > latencies[-1]
    assert latencies[0] / latencies[-1] > 3.0
    # Recall trends down with longer horizons (short vs long extremes).
    assert recalls[0] >= recalls[-1] - 0.02
    # T=10 is a good trade-off: most of the latency win at modest recall cost.
    t10 = rows[HORIZONS.index(10)]
    assert t10.slowest_camera_ms < latencies[0] / 2.5
    assert t10.recall > recalls[0] - 0.08
