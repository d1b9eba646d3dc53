"""The benchmark's workloads: seeded inputs, set-up, and one episode each.

Every workload is a closed loop: one thread runs episodes back to
back, each starting as soon as the previous one returns. An episode is a
fixed amount of work, so its output is a pure function of the seed and
can be fingerprinted and compared across repeats and against the stored
reference.

Traffic, fault schedules and report windows differ a lot from one seed
to the next, so one seed alone would make a run's cost swing by 10-50%.
An episode therefore covers ``parts`` derived seeds, ``seed * parts + i``:
that many pipeline runs (sharing one set of trained models) or reports.

Workloads set only the ``PipelineConfig`` fields that are part of the
pipeline's lasting interface: ``policy``, ``horizon``, ``n_horizons``,
``seed``, ``faults`` and ``checkpoint_path``/``checkpoint_every``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Union

from repro.experiments.parallel import QUICK_PROFILE
from repro.experiments.runner import run_all
from repro.faults.model import FaultModel
from repro.faults.schedule import FaultSchedule
from repro.runtime.metrics import FrameRecord, RunResult
from repro.runtime.pipeline import Pipeline, PipelineConfig, train_models
from repro.scenarios.aic21 import get_scenario

#: The fixed fault mix of ``s1-faults-ckpt``: camera crashes, wire loss,
#: corruption, duplication and reordering, scheduler crashes and
#: partitions, and frozen, flapping and fading sensors. Every control
#: plane component (failover, channel guards, the health watchdog) is
#: armed by it. Each part's schedule is compiled from it with the part's
#: index as fault seed, so every run seed meets the same four schedules
#: and the same fault load (which cameras are down moves a run's cost
#: by a third); the run seed still drives traffic and every per-message
#: wire-fault draw.
FAULT_MIX = FaultModel(
    crash_rate=0.004, mean_outage_frames=8.0,
    loss_prob=0.05,
    corrupt_prob=0.03, duplicate_prob=0.03, reorder_prob=0.03,
    scheduler_crash_rate=0.01, mean_scheduler_outage_frames=10.0,
    scheduler_partition_rate=0.01, mean_scheduler_partition_frames=6.0,
    freeze_rate=0.006, mean_freeze_frames=8.0,
    flap_rate=0.004, mean_flap_frames=6.0,
    fade_rate=0.004, mean_fade_frames=10.0,
)


@dataclass
class Outcome:
    """What one episode produced: its fingerprint and any check failures."""

    digest: str
    problems: List[str]


def frames_digest(frames: Sequence[FrameRecord]) -> str:
    """sha256 over everything a frame record measured.

    Floats go through ``repr``, which round-trips exactly, so two runs
    agree only if every modeled value is bit-identical.
    """
    h = hashlib.sha256()
    for f in frames:
        h.update(repr((
            f.frame_index,
            f.is_key_frame,
            sorted(f.visible_gt),
            sorted(f.detected_gt),
            sorted(f.inference_ms.items()),
            sorted(f.overheads_ms.items()),
            sorted(f.n_slices.items()),
            sorted(f.coverage_lost),
        )).encode())
    return h.hexdigest()


def report_digest(report: str) -> str:
    """sha256 of the report's bytes."""
    return hashlib.sha256(report.encode()).hexdigest()


def _combined(digests: Sequence[str]) -> str:
    return hashlib.sha256("\n".join(digests).encode()).hexdigest()


def part_seeds(seed: int, parts: int) -> List[int]:
    """The derived seeds one episode covers."""
    return [seed * parts + i for i in range(parts)]


@dataclass(frozen=True)
class FrameWorkload:
    """Episodes of ``parts`` BALB runs of ``horizon * n_horizons`` frames."""

    name: str
    why: str
    scenario: str
    horizon: int
    n_horizons: int
    parts: int = 4
    faults: Optional[FaultModel] = None
    checkpoint_every: int = 0

    @property
    def frames_per_run(self) -> int:
        return self.horizon * self.n_horizons

    @property
    def ops_per_episode(self) -> int:
        return self.parts * self.frames_per_run

    def config(
        self,
        seed: int,
        checkpoint_path: Optional[str] = None,
        faults: Optional[FaultSchedule] = None,
    ) -> PipelineConfig:
        return PipelineConfig(
            policy="balb",
            horizon=self.horizon,
            n_horizons=self.n_horizons,
            seed=seed,
            faults=faults,
            checkpoint_path=checkpoint_path,
            checkpoint_every=self.checkpoint_every if checkpoint_path else 0,
        )

    def set_up(self, seed: int, work_dir: str) -> "FrameSession":
        """Build scenario and models, and warm what the first runs build.

        Models are trained once, on the first part's seed. A one-horizon
        first run per part restores (and so builds) that part's
        post-warmup world snapshot and fills the projection and mask
        caches, so the timed episodes start warm.
        """
        scenario = get_scenario(self.scenario, seed=seed)
        checkpoint_path = None
        if self.checkpoint_every:
            checkpoint_path = os.path.join(
                tempfile.mkdtemp(dir=work_dir), "run.ckpt"
            )
        cameras = [cam.camera_id for cam in scenario.cameras]
        configs = []
        for part, part_seed in enumerate(part_seeds(seed, self.parts)):
            faults = None
            if self.faults is not None:
                faults = self.faults.compile(cameras, self.frames_per_run, part)
            configs.append(self.config(part_seed, checkpoint_path, faults))
        trained = train_models(scenario, configs[0])
        for config in configs:
            warm = dataclasses.replace(config, n_horizons=1)
            Pipeline(scenario, warm, trained).run()
        return FrameSession(self, scenario, configs, trained)


class FrameSession:
    """A set-up frame workload, ready to run timed episodes."""

    def __init__(
        self, workload: FrameWorkload, scenario, configs, trained
    ) -> None:
        self.workload = workload
        self.scenario = scenario
        self.configs = configs
        self.trained = trained

    def episode(self) -> Outcome:
        digests: List[str] = []
        problems: List[str] = []
        for config in self.configs:
            result = Pipeline(self.scenario, config, self.trained).run()
            digests.append(frames_digest(result.frames))
            problems.extend(self.check(result))
        return Outcome(_combined(digests), problems)

    def check(self, result: RunResult) -> List[str]:
        """Checks that need no reference: frame count, order, key frames."""
        workload = self.workload
        problems = []
        indices = [f.frame_index for f in result.frames]
        if indices != list(range(workload.frames_per_run)):
            problems.append(
                f"frames {indices[:3]}... != 0..{workload.frames_per_run - 1}"
            )
        if workload.faults is None:
            # Without faults nothing forces or skips a key frame.
            keys = [f.is_key_frame for f in result.frames]
            if keys != [i % workload.horizon == 0 for i in indices]:
                problems.append("key frames off the horizon boundaries")
        if not 0.0 < result.object_recall() <= 1.0:
            problems.append(f"object recall {result.object_recall()}")
        return problems


@dataclass(frozen=True)
class ReportWorkload:
    """Episodes of ``parts`` quick reports, one per seed, on a warm cache."""

    name: str
    why: str
    parts: int = 4

    @property
    def ops_per_episode(self) -> int:
        return self.parts

    def set_up(self, seed: int, work_dir: str) -> "ReportSession":
        """Generate each report once into a fresh cache, which warms it."""
        session = ReportSession(
            part_seeds(seed, self.parts), tempfile.mkdtemp(dir=work_dir)
        )
        session.episode()
        return session


class ReportSession:
    def __init__(self, seeds: List[int], cache_dir: str) -> None:
        self.seeds = seeds
        self.cache_dir = cache_dir

    def episode(self) -> Outcome:
        reports = [
            run_all(
                seed=seed, profile=QUICK_PROFILE, workers=1,
                cache=self.cache_dir, timings=False,
            )
            for seed in self.seeds
        ]
        problems = [
            f"empty report for seed {seed}"
            for seed, report in zip(self.seeds, reports)
            if not report.strip()
        ]
        return Outcome(
            _combined([report_digest(r) for r in reports]), problems
        )


Workload = Union[FrameWorkload, ReportWorkload]

WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        FrameWorkload(
            name="s1-central",
            why=(
                "S1, horizon 1: every frame is a key frame, so association, "
                "Hungarian matching and BALB run on every frame"
            ),
            scenario="S1", horizon=1, n_horizons=100,
        ),
        FrameWorkload(
            name="s3-distributed",
            why=(
                "S3 busy fork road, horizon 10: mostly regular frames, so "
                "world, projection and camera-node work dominate"
            ),
            scenario="S3", horizon=10, n_horizons=25,
        ),
        FrameWorkload(
            name="s1-faults-ckpt",
            why=(
                "S1, horizon 10 under a fixed fault mix with a checkpoint "
                "every 50 frames: arms failover, guards, health, state writes"
            ),
            scenario="S1", horizon=10, n_horizons=15,
            faults=FAULT_MIX, checkpoint_every=50,
        ),
        ReportWorkload(
            name="report-quick", parts=8,
            why=(
                "the in-process quick report on a warm artifact cache: job "
                "decomposition, merge, render and the cache"
            ),
        ),
    )
}
