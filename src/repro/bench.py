"""Hot-path microbenchmarks with a regression gate.

``repro bench`` times the kernels the vectorization work targets — the
central BALB assignment, the Hungarian solver, single and batched KNN
association queries, `BALBResult.priority_of`, and camera-mask
construction — and writes per-benchmark median milliseconds to a JSON
file (``BENCH_micro.json``). Passing ``--baseline`` compares each median
against a checked-in baseline and fails (exit 1) when any benchmark is
more than ``--max-regression`` times slower, which is the CI perf-smoke
gate.

Every benchmark builds its inputs from fixed seeds, so the *work* is
identical run to run; only machine speed moves the numbers.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

SCHEMA_VERSION = 1


@dataclass(frozen=True)
class BenchResult:
    """One benchmark's timing summary."""

    name: str
    median_ms: float
    rounds: int
    iterations: int


# ----------------------------------------------------------------------
# Benchmark bodies (each returns a zero-argument callable to time)
# ----------------------------------------------------------------------


def _setup_balb_central(n_objects: int) -> Callable[[], object]:
    from repro.core.balb import balb_central
    from repro.experiments.ablations import jetson_fleet_profiles, random_instance

    profiles = jetson_fleet_profiles(0)
    instance = random_instance(profiles, n_objects, np.random.default_rng(0))
    return lambda: balb_central(instance)


def _setup_priority_of() -> Callable[[], object]:
    from repro.core.balb import balb_central
    from repro.experiments.ablations import jetson_fleet_profiles, random_instance

    profiles = jetson_fleet_profiles(0)
    instance = random_instance(profiles, 40, np.random.default_rng(0))
    result = balb_central(instance)
    cams = sorted(result.camera_latencies)

    def body() -> int:
        total = 0
        for cam in cams:
            total += result.priority_of(cam)
        return total

    return body


def _setup_hungarian(n: int) -> Callable[[], object]:
    from repro.ml.hungarian import hungarian

    cost = np.random.default_rng(1).random((n, n))
    return lambda: hungarian(cost)


def _trained_associator():
    """A two-camera associator fitted on synthetic correspondences."""
    from repro.association.pairwise import PairwiseAssociator
    from repro.association.training import AssociationDataset
    from repro.geometry.box import BBox

    rng = np.random.default_rng(2)
    dataset = AssociationDataset()
    fwd = dataset.pair(0, 1)
    back = dataset.pair(1, 0)
    for _ in range(800):
        cx = float(rng.uniform(0.0, 1000.0))
        cy = float(rng.uniform(0.0, 600.0))
        w = float(rng.uniform(30.0, 80.0))
        src = BBox.from_xywh(cx, cy, w, w * 0.7)
        dst = src.translate(150.0, 0.0) if cx < 500.0 else None
        fwd.add(src, dst)
        back.add(dst if dst is not None else src, None if dst is None else src)
    return PairwiseAssociator().fit(dataset)


def _setup_knn_query() -> Callable[[], object]:
    from repro.geometry.box import BBox

    assoc = _trained_associator()
    probe = BBox.from_xywh(250.0, 300.0, 50.0, 35.0)

    def body() -> object:
        assoc.predict_visible(0, 1, probe)
        return assoc.predict_box(0, 1, probe)

    return body


def _setup_knn_query_batch(n_probes: int) -> Callable[[], object]:
    from repro.geometry.box import BBox

    assoc = _trained_associator()
    model = assoc.model(0, 1)
    assert model is not None
    rng = np.random.default_rng(3)
    probes = [
        BBox.from_xywh(
            float(rng.uniform(0.0, 1000.0)), float(rng.uniform(0.0, 600.0)),
            50.0, 35.0,
        )
        for _ in range(n_probes)
    ]

    def body() -> object:
        model.predict_visible_batch(probes)
        return model.predict_boxes(probes)

    return body


def _setup_serving_fanout(subscribers: int) -> Callable[[], object]:
    from repro.net.messages import SnapshotMessage
    from repro.serving.edge import SnapshotCache

    cache = SnapshotCache()
    state = {"version": 0}

    def body() -> object:
        # One publication (cache miss + encode) fanned out to the whole
        # simulated fleet; serve_many keeps the fan-out O(1) in n.
        version = state["version"]
        state["version"] = version + 1
        cache.put(
            SnapshotMessage(
                version=version, frame_index=version,
                is_key_frame=version % 5 == 0, n_visible=12, n_detected=11,
            )
        )
        return cache.serve_many(subscribers)

    return body


#: Frames each ``event_pipeline_burst`` iteration processes (for the
#: sustained frames/sec figure derived from its median).
EVENT_BURST_FRAMES = 12


def _setup_event_pipeline_burst() -> Callable[[], object]:
    from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
    from repro.scenarios.aic21 import get_scenario
    from repro.scenarios.bursts import fleet_burst_spec

    config = PipelineConfig(
        policy="balb", horizon=4, n_horizons=3, warmup_s=6.0,
        train_duration_s=12.0, seed=0, ingest_capacity=2,
        ingest_policy="coalesce-to-key-frame",
        faults=fleet_burst_spec(4, EVENT_BURST_FRAMES),
    )
    scenario = get_scenario("S2", seed=0)
    trained = train_models(scenario, config)
    return lambda: run_policy(scenario, "balb", config, trained)


#: Frames each ``e2e_frames_per_sec_*`` iteration simulates (horizon ×
#: n_horizons of the benchmark config), for the frames/sec figure.
E2E_FRAMES = 40


def _setup_e2e_frames(scenario_name: str) -> Callable[[], object]:
    """End-to-end frame loop on one scenario.

    Training happens in setup so the timed body is exactly the per-frame
    hot path: world stepping, projection, detection, tracking, and BALB
    scheduling over ``E2E_FRAMES`` frames of the golden S1 shape.
    """
    from repro.runtime.pipeline import PipelineConfig, run_policy, train_models
    from repro.scenarios.aic21 import get_scenario

    config = PipelineConfig(
        policy="balb", horizon=5, n_horizons=8, warmup_s=20.0,
        train_duration_s=60.0, seed=0,
    )
    scenario = get_scenario(scenario_name, seed=0)
    trained = train_models(scenario, config)
    return lambda: run_policy(scenario, "balb", config, trained)


#: Fleet size and frames each ``fleet_health_overhead`` iteration drives
#: through the watchdog (the per-frame cost the scheduler pays under a
#: sensor-fault preset, amortized over a representative episode).
HEALTH_CAMERAS = 16
HEALTH_FRAMES = 60


def _setup_fleet_health() -> Callable[[], object]:
    from repro.runtime.health import FleetHealthWatchdog, HealthSignals

    cams = list(range(HEALTH_CAMERAS))

    def body() -> object:
        watchdog = FleetHealthWatchdog(cams)
        transitions = 0
        for frame in range(HEALTH_FRAMES):
            signals = {}
            for cam in cams:
                # Camera 0 freezes mid-episode (its token repeats),
                # camera 1 drifts off the fleet clock, camera 2 flaps;
                # the rest stay healthy behind a scene-varying token —
                # a full quarantine/readmission lifecycle per iteration.
                token = frame * 31 + cam
                alive = True
                skew = 0
                if cam == 0 and 20 <= frame < 40:
                    token = 20 * 31
                elif cam == 1:
                    skew = frame // 12
                elif cam == 2:
                    alive = frame % 2 == 0
                signals[cam] = HealthSignals(
                    alive=alive,
                    content_token=token,
                    skew_frames=skew,
                    quality=1.0 if frame % 5 == 0 else None,
                )
            transitions += len(watchdog.observe(frame, signals))
        return transitions

    return body


def _setup_mask_build() -> Callable[[], object]:
    # Times the classifier sweep itself, bypassing the per-associator
    # memo build_camera_masks consults on the runtime path.
    from repro.core.masks import _build_camera_masks_uncached

    assoc = _trained_associator()
    frame_sizes = {0: (1280, 704), 1: (1280, 704)}
    sizes = {0: 55.0, 1: 55.0}
    return lambda: _build_camera_masks_uncached(
        frame_sizes, assoc, sizes, grid=(8, 6)
    )


BENCHMARKS: Dict[str, Tuple[Callable[[], Callable[[], object]], int]] = {
    # name -> (setup factory, inner iterations per round)
    "balb_central_40obj": (lambda: _setup_balb_central(40), 20),
    "balb_priority_of": (_setup_priority_of, 2000),
    "fleet_health_overhead": (_setup_fleet_health, 20),
    "hungarian_20x20": (lambda: _setup_hungarian(20), 20),
    "knn_pair_query": (_setup_knn_query, 50),
    "knn_pair_query_batch64": (lambda: _setup_knn_query_batch(64), 50),
    "mask_build_2cam": (_setup_mask_build, 5),
    "serving_fanout": (lambda: _setup_serving_fanout(1_000_000), 200),
    "event_pipeline_burst": (_setup_event_pipeline_burst, 1),
    "e2e_frames_per_sec_s1": (lambda: _setup_e2e_frames("S1"), 1),
    "e2e_frames_per_sec_s2": (lambda: _setup_e2e_frames("S2"), 1),
    "e2e_frames_per_sec_s3": (lambda: _setup_e2e_frames("S3"), 1),
}


def run_benchmark(
    name: str, rounds: int, iterations: Optional[int] = None
) -> BenchResult:
    """Time one named benchmark and return its median round time."""
    setup, default_iters = BENCHMARKS[name]
    iters = default_iters if iterations is None else iterations
    body = setup()
    body()  # warm caches, JIT-free but allocator/worker state matters
    samples: List[float] = []
    for _ in range(rounds):
        start = time.perf_counter()
        for _ in range(iters):
            body()
        elapsed = time.perf_counter() - start
        samples.append(elapsed / iters * 1e3)
    return BenchResult(
        name=name,
        median_ms=float(np.median(samples)),
        rounds=rounds,
        iterations=iters,
    )


def run_suite(quick: bool = False) -> List[BenchResult]:
    """Run every benchmark; ``quick`` trims rounds for smoke runs."""
    rounds = 3 if quick else 5
    return [run_benchmark(name, rounds) for name in sorted(BENCHMARKS)]


def results_payload(results: List[BenchResult]) -> Dict[str, object]:
    """The ``BENCH_micro.json`` document for a set of results."""
    return {
        "version": SCHEMA_VERSION,
        "benchmarks": {
            r.name: {
                "median_ms": r.median_ms,
                "rounds": r.rounds,
                "iterations": r.iterations,
            }
            for r in results
        },
    }


def check_against_baseline(
    results: List[BenchResult],
    baseline: Dict[str, object],
    max_regression: float,
) -> List[str]:
    """Regression messages for benchmarks slower than the allowed ratio.

    Benchmarks absent from the baseline are skipped (new benchmarks must
    not fail the gate before a baseline exists for them).
    """
    known = baseline.get("benchmarks")
    if not isinstance(known, dict):
        raise ValueError("malformed baseline: missing 'benchmarks' mapping")
    failures = []
    for result in results:
        entry = known.get(result.name)
        if not entry:
            continue
        base_ms = float(entry["median_ms"])
        if base_ms <= 0:
            continue
        ratio = result.median_ms / base_ms
        if ratio > max_regression:
            failures.append(
                f"{result.name}: {result.median_ms:.3f} ms vs baseline "
                f"{base_ms:.3f} ms ({ratio:.2f}x > {max_regression:.2f}x)"
            )
    return failures


def profile_benchmark(name: str, top: int = 20) -> None:
    """Run one named benchmark under cProfile and print hot functions.

    The setup phase is excluded so the profile covers only the timed
    body, sorted by cumulative time (top ``top`` rows).
    """
    import cProfile
    import pstats

    setup, iters = BENCHMARKS[name]
    body = setup()
    body()  # warm caches outside the profile, same as run_benchmark
    profiler = cProfile.Profile()
    profiler.enable()
    for _ in range(iters):
        body()
    profiler.disable()
    stats = pstats.Stats(profiler)
    stats.sort_stats("cumulative").print_stats(top)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run hot-path microbenchmarks and emit BENCH_micro.json.",
    )
    parser.add_argument(
        "--quick", action="store_true", help="fewer rounds (CI smoke mode)"
    )
    parser.add_argument(
        "--out", default="BENCH_micro.json", help="output JSON path"
    )
    parser.add_argument(
        "--baseline", default=None,
        help="baseline JSON to gate against (exit 1 on regression)",
    )
    parser.add_argument(
        "--max-regression", type=float, default=2.0,
        help="fail when median exceeds baseline by this ratio (default 2.0)",
    )
    parser.add_argument(
        "--profile", default=None, metavar="NAME", choices=sorted(BENCHMARKS),
        help="profile one benchmark under cProfile (top-20 cumulative) "
        "instead of running the suite",
    )
    args = parser.parse_args(argv)

    if args.profile:
        profile_benchmark(args.profile)
        return 0

    results = run_suite(quick=args.quick)
    for result in results:
        print(f"{result.name:28s} {result.median_ms:10.3f} ms/iter")
        if result.name == "event_pipeline_burst" and result.median_ms > 0:
            fps = EVENT_BURST_FRAMES / (result.median_ms / 1e3)
            print(f"{'  sustained under burst':28s} {fps:10.1f} frames/s")
        elif result.name.startswith("e2e_frames_per_sec") and result.median_ms > 0:
            fps = E2E_FRAMES / (result.median_ms / 1e3)
            print(f"{'  end-to-end throughput':28s} {fps:10.1f} frames/s")
    payload = results_payload(results)
    with open(args.out, "w") as f:
        json.dump(payload, f, indent=2, sort_keys=True)
        f.write("\n")
    print(f"wrote {args.out}")

    if args.baseline:
        with open(args.baseline) as f:
            baseline = json.load(f)
        failures = check_against_baseline(
            results, baseline, args.max_regression
        )
        if failures:
            for failure in failures:
                print(f"PERF REGRESSION: {failure}", file=sys.stderr)
            return 1
        print("perf gate: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
