"""Occlusion-robust redundant assignment (paper Section V extension).

The paper's single-camera assignment has a known failure mode: "an object
assigned exclusively to a camera might later get occluded by another
object making it invisible to that camera, whereas it might remain
visible to another camera". This example turns on inter-object occlusion
in the simulator and compares BALB tracking each object from k=1 vs k=2
cameras on the busy fork scenario (S3), where trucks and buses regularly
mask the cars behind them.

Also renders the scene map so the camera geometry is visible.

Run:  python examples/occlusion_redundancy.py
"""

from dataclasses import replace

from repro.runtime import PipelineConfig, run_policy, train_models
from repro.scenarios import get_scenario
from repro.viz import render_ground_plane


def main() -> None:
    scenario = get_scenario("S3", seed=0)
    world, rig = scenario.build(seed=123)
    world.run(80.0, scenario.frame_interval)
    print(f"Scenario {scenario.name}: {scenario.description}\n")
    print(render_ground_plane(world, rig))
    print()

    base = PipelineConfig(
        policy="balb",
        horizon=10,
        n_horizons=25,
        warmup_s=30.0,
        train_duration_s=120.0,
    )
    print("Training shared association models...")
    trained = train_models(scenario, base)

    results = {}
    for k in (1, 2):
        config = replace(base, occlusion=True, redundancy=k)
        print(f"Running BALB with occlusion on, k={k} cameras per object...")
        results[k] = run_policy(scenario, "balb", config, trained)

    print()
    print(f"{'k':>2s} {'recall':>8s} {'slowest-cam ms':>15s}")
    for k, result in results.items():
        print(
            f"{k:2d} {result.object_recall():8.3f} "
            f"{result.mean_slowest_latency():15.1f}"
        )
    gain = results[2].object_recall() - results[1].object_recall()
    cost = (
        results[2].mean_slowest_latency() / results[1].mean_slowest_latency()
    )
    print(
        f"\nRedundancy recovered {gain * 100:+.1f} recall points for a "
        f"{cost:.2f}x latency cost — the trade the paper's limitations "
        "section anticipates."
    )


if __name__ == "__main__":
    main()
