"""Scheduling horizon trade-off (paper Figure 14).

Sweeps the horizon length T — the number of frames between full-frame key
frames — and prints how BALB's object recall and slowest-camera latency
move in opposite directions, with an ASCII chart of both series.

Run:  python examples/horizon_tradeoff.py
"""

from repro.experiments import horizon_point
from repro.runtime import PipelineConfig, train_models
from repro.scenarios import get_scenario

HORIZONS = (2, 5, 10, 20, 30)


def bar(value: float, scale: float, width: int = 40) -> str:
    n = int(round(value / scale * width))
    return "#" * max(0, min(width, n))


def main() -> None:
    scenario = get_scenario("S1", seed=0)
    config = PipelineConfig(
        policy="balb", warmup_s=30.0, train_duration_s=120.0, seed=0
    )
    print("Training association models once (shared across the sweep)...")
    trained = train_models(scenario, config)

    print(f"Sweeping horizon T over {HORIZONS} on {scenario.name}...\n")
    rows = [
        horizon_point(scenario, config, trained, horizon, 250)
        for horizon in HORIZONS
    ]

    max_latency = max(r.slowest_camera_ms for r in rows)
    print(f"{'T':>3s} {'recall':>8s} {'latency ms':>11s}")
    for row in rows:
        print(
            f"{row.horizon:3d} {row.recall:8.3f} "
            f"{row.slowest_camera_ms:11.1f}  "
            f"{bar(row.slowest_camera_ms, max_latency)}"
        )

    knee = min(
        rows,
        key=lambda r: (r.slowest_camera_ms / max_latency) + (1.0 - r.recall),
    )
    print(
        f"\nBest combined trade-off at T = {knee.horizon} "
        "(the paper picks T = 10): longer horizons amortize the key-frame\n"
        "cost over more frames, but tracking drift and unseen arrivals\n"
        "erode recall."
    )


if __name__ == "__main__":
    main()
