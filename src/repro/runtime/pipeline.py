"""End-to-end pipeline: scenario -> trained models -> scheduled run.

This is the top-level entry point of the reproduction. Given a scenario
and a policy name it (1) trains the cross-camera association models on a
training segment of the simulated world (the paper's first-half-of-video
protocol), (2) profiles the devices offline, (3) replays a test segment
under the chosen scheduling policy, and (4) returns a
:class:`~repro.runtime.metrics.RunResult` with the recall/latency/overhead
metrics of Figures 12-14 and Table II.

Policies: ``full``, ``balb``, ``balb-cen``, ``balb-ind``, ``sp``.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field, replace
import math
from numbers import Integral
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np

from repro.association.pairwise import PairwiseAssociator
from repro.association.training import collect_association_dataset
from repro.cache import ArtifactCache, get_active_cache
from repro.cameras.occlusion import OcclusionModel, visible_fractions
from repro.cameras.projection import FrameProjectionCache
from repro.cameras.rig import CameraRig
from repro.checkpoint import RunCheckpoint, save_checkpoint
from repro.core.distributed import DistributedPolicy
from repro.devices.profiler import DeviceProfile, profile_device
from repro.devices.profiles import latency_model_for
from repro.faults.schedule import FaultSchedule, FrameFaults
from repro.faults.spec import FAULT_SEED_OFFSET, fault_source, resolve_faults
from repro.net.envelope import DROP_STALE_EPOCH, Envelope
from repro.net.heartbeat import LeaseConfig
from repro.net.link import DuplexChannel
from repro.obs.registry import MetricsRegistry
from repro.obs.trace import WALL_CLOCK, Clock, Tracer, get_tracer, use_tracer
from repro.runtime.camera_node import CameraNode
from repro.runtime.failover import (
    PRIMARY,
    Authority,
    FailoverManager,
    FailoverTransition,
)
from repro.runtime.health import (
    FleetHealthWatchdog,
    HealthSignals,
    HealthState,
    content_token,
)
from repro.runtime.invariants import InvariantMonitor
from repro.runtime.ingest import INGEST_POLICIES, FrameIngest, IngestEdge
from repro.runtime.metrics import FrameRecord, RunResult
from repro.runtime.overhead import OverheadModel
from repro.runtime.policies import (
    BALBPolicy,
    CentralOnlyPolicy,
    IndependentPolicy,
    RegularFramePolicy,
    StaticPartitioningPolicy,
)
from repro.runtime.scheduler_node import CentralScheduler, ScheduleDecision
from repro.runtime.synchronization import (
    SkewModel,
    drifted_lag,
    snapshot_objects,
)
from repro.runtime.trajectory import Frame, Trajectory, world_trajectory
from repro.scenarios.builder import Scenario
from repro.serving.edge import ServingEdge

POLICIES = ("full", "balb", "balb-cen", "balb-ind", "sp")
_CENTRALIZED = ("balb", "balb-cen", "sp")


@dataclass
class PipelineConfig:
    """Knobs of one pipeline run."""

    policy: str = "balb"
    horizon: int = 10  # frames per scheduling horizon (T)
    n_horizons: int = 30
    warmup_s: float = 20.0
    train_duration_s: float = 120.0
    seed: int = 0
    gpu_jitter: float = 0.02
    occlusion: bool = False  # inter-object occlusion in the detector
    redundancy: int = 1  # cameras per object (Section V extension)
    max_camera_lag_frames: int = 0  # imperfect synchronization (Section V)
    trace: bool = False  # collect a per-frame span trace into RunResult
    #: Fault injection: None (disabled), a spec string / chaos preset name
    #: (see repro.faults.spec), a FaultSchedule, or a FaultModel compiled
    #: against this run's seed. Every run resolves it to a FaultSchedule;
    #: a plan that fires nothing resolves to the empty one, whose run is
    #: identical to a build without fault support.
    faults: Optional[object] = None
    #: Scheduler failover (only armed when the fault plan contains
    #: scheduler_crash or sched_partition events): heartbeat cadence of
    #: the warm-standby protocol, which bounds detection latency.
    failover_heartbeat_frames: int = 5
    #: Epoch fencing: every leadership change bumps the scheduling epoch
    #: and receivers drop assignments from older epochs. ``False``
    #: selects the legacy protocol (everything stays at epoch 0), which
    #: is split-brain-prone under scheduler partitions — kept for the
    #: regression harness that proves the invariant monitor catches it.
    epoch_fencing: bool = True
    #: Crash-consistent checkpointing: with ``checkpoint_path`` set the
    #: run snapshots its full state there every ``checkpoint_every``
    #: frames (0 = only on interruption), and ``stop_after_frames``
    #: simulates an interruption — the run checkpoints and stops after
    #: that many frames. A resumed run is bit-identical to an
    #: uninterrupted one (wall-clock observations aside).
    checkpoint_path: Optional[str] = None
    checkpoint_every: int = 0
    stop_after_frames: Optional[int] = None
    #: Ingest edge every frame passes through: per-camera queue capacity
    #: and the backpressure policy applied when a burst overflows it.
    #: Without ingest_burst faults neither is observable.
    ingest_capacity: int = 4
    ingest_policy: str = "drop-oldest"
    #: Read-side serving edge: number of simulated live-state subscribers
    #: (0 = edge disabled) and the snapshot publication cadence in frames.
    serve_subscribers: int = 0
    serve_every: int = 1

    def __post_init__(self) -> None:
        if self.policy not in POLICIES:
            raise ValueError(
                f"unknown policy {self.policy!r}; options: {POLICIES}"
            )
        for name in (
            "horizon", "n_horizons", "seed", "redundancy",
            "max_camera_lag_frames", "failover_heartbeat_frames",
            "checkpoint_every", "stop_after_frames", "ingest_capacity",
            "serve_subscribers", "serve_every",
        ):
            value = getattr(self, name)
            if value is None and name == "stop_after_frames":
                continue
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer; got {value!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.n_horizons < 1:
            raise ValueError("n_horizons must be >= 1")
        # NaN passes every ordering check below, so finiteness is its own.
        for name in ("warmup_s", "train_duration_s", "gpu_jitter"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite; got {getattr(self, name)!r}")
        if self.warmup_s < 0:
            raise ValueError("warmup_s must be non-negative")
        if self.train_duration_s <= 0:
            raise ValueError("train_duration_s must be positive")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")
        if self.redundancy < 1:
            raise ValueError("redundancy must be >= 1")
        if self.max_camera_lag_frames < 0:
            raise ValueError("max_camera_lag_frames must be non-negative")
        if self.gpu_jitter < 0:
            raise ValueError("gpu_jitter must be non-negative")
        try:
            fault_source(self.faults)
        except ValueError as exc:
            raise ValueError(f"faults: {exc}") from exc
        if self.failover_heartbeat_frames < 1:
            raise ValueError("failover_heartbeat_frames must be >= 1")
        if self.checkpoint_every < 0:
            raise ValueError("checkpoint_every must be non-negative")
        if self.stop_after_frames is not None and self.stop_after_frames < 1:
            raise ValueError("stop_after_frames must be >= 1")
        if self.checkpoint_path is None and (
            self.checkpoint_every > 0 or self.stop_after_frames is not None
        ):
            raise ValueError(
                "checkpoint_every/stop_after_frames need checkpoint_path"
            )
        if self.ingest_capacity < 1:
            raise ValueError("ingest_capacity must be >= 1")
        if self.ingest_policy not in INGEST_POLICIES:
            raise ValueError(
                f"unknown ingest policy {self.ingest_policy!r}; "
                f"options: {INGEST_POLICIES}"
            )
        if self.serve_subscribers < 0:
            raise ValueError("serve_subscribers must be non-negative")
        if self.serve_every < 1:
            raise ValueError("serve_every must be >= 1")


@dataclass
class TrainedModels:
    """Artifacts shared between runs of the same scenario/seed."""

    associator: Optional[PairwiseAssociator]
    typical_box_sizes: Dict[int, float]
    profiles: Dict[int, DeviceProfile]


@dataclass
class _RunState:
    """Everything mutable about a run in flight.

    This is the checkpoint payload: pickling one object keeps shared
    references (the scheduler's channels, the nodes' executors) shared
    on restore, which is what makes a resumed run bit-identical to an
    uninterrupted one. ``next_frame`` is the first frame the loop has
    not yet processed. Both edges live here too — the ingest queues
    with their held burst frames, and the serving edge's snapshot
    cache — so burst and serving runs resume like any other.
    """

    next_frame: int
    total_frames: int
    dt: float
    #: Where every frame the run's cameras see comes from; a lagging
    #: camera reads frame ``max(k - lag, 0)`` of it, with ``lag``
    #: clamped by :func:`drifted_lag` to ``lag_depth``.
    trajectory: Trajectory
    rig: CameraRig
    nodes: Dict[int, CameraNode]
    scheduler: Optional[CentralScheduler]
    policies: Dict[int, RegularFramePolicy]
    result: RunResult
    registry: MetricsRegistry
    camera_ids: List[int]
    faults: FaultSchedule
    prev_down: frozenset
    stale_horizons: Dict[int, int]
    central_amortized: float
    occlusion: Optional[OcclusionModel]
    lag_depth: int
    camera_lags: Dict[int, int]
    failover: Optional[FailoverManager]
    invariants: InvariantMonitor
    ingest: IngestEdge
    serving: Optional[ServingEdge] = None
    #: Fleet health (armed only under degraded-sensor faults): the
    #: watchdog, the captured frame each frozen camera keeps seeing,
    #: and whether a membership change last frame wants an early key
    #: frame to re-run the central stage over the new membership.
    health: Optional[FleetHealthWatchdog] = None
    frozen_views: Dict[int, Frame] = field(default_factory=dict)
    health_forced_key: bool = False


class _Control(NamedTuple):
    """One frame's control-plane decisions (``Pipeline._control_plane``)."""

    is_key: bool
    forced_key: bool
    quarantined: frozenset
    probation: frozenset
    #: Cameras that process nothing: down, stalled or quarantined.
    effective_down: frozenset
    authorities: Tuple[Authority, ...]
    transitions: Tuple[FailoverTransition, ...]


class _Sensed(NamedTuple):
    """What one frame shows (``Pipeline._sense``)."""

    objects: list
    cache: FrameProjectionCache
    views: Dict[int, Frame]
    multipliers: Dict[int, Dict[int, float]]
    visible_gt: frozenset
    coverage_lost: frozenset


class _CameraPass(NamedTuple):
    """The live cameras' outcomes (``Pipeline._camera_pass``)."""

    inference: Dict[int, float]
    detected: set
    key_detected: Dict[int, int]
    reports: Dict[int, list]
    n_slices: Dict[int, int]


def trained_models_key(
    cache: ArtifactCache,
    scenario: Scenario,
    config: PipelineConfig,
    need_association: bool = True,
) -> str:
    """Cache key of the :func:`train_models` artifact for these inputs.

    Only the config fields the offline stage actually reads participate,
    so runs that differ in policy/horizon/faults share one artifact.
    """
    return cache.key_for(
        kind="trained-models",
        scenario=scenario,
        seed=config.seed,
        warmup_s=config.warmup_s,
        train_duration_s=config.train_duration_s,
        need_association=need_association,
    )


def train_models(
    scenario: Scenario, config: PipelineConfig, need_association: bool = True
) -> TrainedModels:
    """Offline stage: fit association models and profile devices.

    When an artifact cache is active (:func:`repro.cache.use_cache`) the
    fitted models are loaded from / stored into it content-addressed, so
    repeated harness runs over the same (scenario, seed, training knobs)
    fit each artifact exactly once. Training is deterministic and the
    pickle round-trip is exact, so a cached artifact is interchangeable
    with a fresh fit.
    """
    cache = get_active_cache()
    if cache is None:
        return _train_models(scenario, config, need_association)
    key = trained_models_key(cache, scenario, config, need_association)
    cached = cache.get(key)
    if cached is not None:
        return cached
    trained = _train_models(scenario, config, need_association)
    cache.put(key, trained)
    return trained


def _train_models(
    scenario: Scenario, config: PipelineConfig, need_association: bool
) -> TrainedModels:
    device_map = scenario.device_map()
    profiles: Dict[int, DeviceProfile] = {}
    for cam in scenario.cameras:
        device = device_map[cam.camera_id]
        model = latency_model_for(
            device, full_frame=cam.frame_size
        )
        profiles[cam.camera_id] = profile_device(
            model, device.name, seed=config.seed + cam.camera_id
        )

    associator: Optional[PairwiseAssociator] = None
    typical: Dict[int, float] = {c.camera_id: 60.0 for c in scenario.cameras}
    if need_association:
        world, rig = scenario.build(seed=config.seed)
        world.run(config.warmup_s, scenario.frame_interval)
        dataset = collect_association_dataset(
            world, rig, duration_s=config.train_duration_s,
            dt=scenario.frame_interval,
        )
        associator = PairwiseAssociator().fit(dataset)
        typical.update(_typical_box_sizes(dataset, typical))
    return TrainedModels(
        associator=associator, typical_box_sizes=typical, profiles=profiles
    )


def _typical_box_sizes(dataset, default: Dict[int, float]) -> Dict[int, float]:
    """Median box side per source camera, from the training features."""
    per_cam: Dict[int, List[float]] = {}
    for (source, _), pair_ds in dataset.pairs.items():
        for feats in pair_ds.features:
            per_cam.setdefault(source, []).append(max(feats[2], feats[3]))
    return {
        cam: float(np.median(v)) for cam, v in per_cam.items() if v
    } or dict(default)


def _check_fault_cameras(faults: object, scenario: Scenario) -> None:
    """Reject scripted fault events on cameras the scenario's rig lacks.

    Such an event would never fire. A :class:`FaultModel` draws its
    cameras from the rig, so only schedules are checked.
    """
    source = fault_source(faults)
    if not isinstance(source, FaultSchedule):
        return
    rig_ids = sorted(cam.camera_id for cam in scenario.cameras)
    for event in source.events:
        if event.camera_id is not None and event.camera_id not in rig_ids:
            raise ValueError(
                f"faults: {event.kind.value} event names camera "
                f"{event.camera_id}, which is not in the {scenario.name} rig; "
                f"its cameras are {rig_ids}"
            )


class Pipeline:
    """Runs one policy over one scenario and collects metrics."""

    def __init__(
        self,
        scenario: Scenario,
        config: Optional[PipelineConfig] = None,
        trained: Optional[TrainedModels] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        self.scenario = scenario
        self.config = config or PipelineConfig()
        _check_fault_cameras(self.config.faults, scenario)
        need_assoc = self.config.policy in _CENTRALIZED
        self.trained = trained or train_models(
            scenario, self.config, need_association=need_assoc
        )
        if need_assoc and self.trained.associator is None:
            raise ValueError(
                f"policy {self.config.policy!r} needs trained association models"
            )
        self.overheads = OverheadModel()
        # Wall-clock observations (frame_wall_ms) go through an injectable
        # clock so tests can pin them without touching the frame processor.
        self.clock: Clock = WALL_CLOCK if clock is None else clock

    # ------------------------------------------------------------------
    def run(self, state: Optional[_RunState] = None) -> RunResult:
        """Execute the configured run and return its metrics.

        A fresh run builds its state from the config; a checkpointed
        ``state`` (from :func:`repro.checkpoint.load_checkpoint`, handed
        over by :meth:`~repro.checkpoint.RunCheckpoint.resume`)
        continues from ``state.next_frame`` with its own registry.
        With ``config.trace`` the run activates a fresh
        :class:`~repro.obs.trace.Tracer` and threads the finished span
        forest into ``RunResult.spans``; otherwise whatever ambient tracer
        is active (normally the zero-cost no-op tracer) is left in place.
        A per-run metrics registry snapshot always lands in
        ``RunResult.metrics``.
        """
        config = self.config
        if config.trace:
            tracer = Tracer()
            activation = use_tracer(tracer)
        else:
            tracer = get_tracer()
            activation = nullcontext()
        with activation:
            if state is None:
                state = self._init_state(MetricsRegistry())
            result = self._frame_loop(state, tracer)
        if config.trace:
            result.spans = tracer.records
        result.metrics = state.registry.export()
        return result

    def _init_state(self, registry: MetricsRegistry) -> _RunState:
        """Build the mutable run state the frame loop advances."""
        config = self.config
        scenario = self.scenario
        dt = scenario.frame_interval

        # The rig is rebuilt directly so its cameras stay the scenario's
        # own (static) camera objects, exactly as scenario.build does.
        rig = CameraRig(scenario.cameras)

        nodes = self._build_nodes(rig, dt)
        scheduler = self._build_scheduler(rig) if config.policy in _CENTRALIZED else None
        policies: Dict[int, RegularFramePolicy] = self._static_policies(rig, scheduler)

        result = RunResult(
            policy=config.policy,
            scenario=scenario.name,
            horizon=config.horizon,
        )
        total_frames = config.horizon * config.n_horizons
        camera_ids = [cam.camera_id for cam in rig]

        # Fault injection: compiled up front from its own seed stream, so
        # fault randomness never interleaves with the simulation RNGs. A
        # plan that fires nothing is the empty schedule, which keeps every
        # output below byte-identical to a fault-free build.
        faults = resolve_faults(
            config.faults, camera_ids, total_frames,
            config.seed + FAULT_SEED_OFFSET,
        )
        stale_horizons: Dict[int, int] = {cam: 0 for cam in camera_ids}

        occlusion = OcclusionModel() if config.occlusion else None
        camera_lags: Dict[int, int] = {cam.camera_id: 0 for cam in rig}
        if config.max_camera_lag_frames > 0:
            skew = SkewModel(max_lag_frames=config.max_camera_lag_frames)
            lag_rng = np.random.default_rng(config.seed + 777)
            camera_lags = skew.sample_lags(
                [cam.camera_id for cam in rig], lag_rng
            )
        # Clock drift generalizes the static skew: a camera can fall
        # behind by its static lag plus the worst drift this run reaches.
        lag_depth = (
            config.max_camera_lag_frames
            + faults.max_drift_lag(total_frames)
            + 1
        )
        # Fresh test world, decorrelated from the training segment. Inside
        # a sharing scope every run of this world replays one recorded
        # trajectory; a checkpointing run keeps its own, which pickles
        # with its state.
        trajectory = world_trajectory(
            scenario, config.seed + 10_000, config.warmup_s, lag_depth,
            private=config.checkpoint_path is not None,
        )

        # The fleet health watchdog is armed only when the fault plan can
        # actually degrade a sensor: it exports health gauges and can
        # suspect a camera on report quality, so arming it on every run
        # would change fault-free outputs.
        health: Optional[FleetHealthWatchdog] = None
        if faults.has_sensor_faults:
            health = FleetHealthWatchdog(camera_ids)

        # Failover is armed only when the fault plan can actually take the
        # scheduler down: an armed manager piggybacks checkpoint replicas
        # on assignment downloads, whose extra bytes cost modeled
        # communication time on every key frame.
        failover: Optional[FailoverManager] = None
        if scheduler is not None and faults.has_scheduler_faults:
            failover = FailoverManager(
                camera_ids,
                scheduler.capacities,
                lease=LeaseConfig(
                    heartbeat_interval_frames=config.failover_heartbeat_frames
                ),
                frame_dt_s=dt,
                channels=scheduler.channels,
                overheads=scheduler.overheads,
                fencing=config.epoch_fencing,
            )

        return _RunState(
            next_frame=0,
            total_frames=total_frames,
            dt=dt,
            trajectory=trajectory,
            rig=rig,
            nodes=nodes,
            scheduler=scheduler,
            policies=policies,
            result=result,
            registry=registry,
            camera_ids=camera_ids,
            faults=faults,
            prev_down=frozenset(),
            stale_horizons=stale_horizons,
            central_amortized=0.0,
            occlusion=occlusion,
            lag_depth=lag_depth,
            camera_lags=camera_lags,
            failover=failover,
            invariants=InvariantMonitor(),
            ingest=IngestEdge(
                camera_ids, config.ingest_capacity, config.ingest_policy
            ),
            serving=(
                ServingEdge(
                    subscribers=config.serve_subscribers,
                    publish_every=config.serve_every,
                )
                if config.serve_subscribers > 0
                else None
            ),
            health=health,
        )

    def _save_state(self, state: _RunState) -> None:
        """Checkpoint the run as-of ``state.next_frame`` (atomic write)."""
        assert self.config.checkpoint_path is not None
        save_checkpoint(
            self.config.checkpoint_path,
            RunCheckpoint(
                scenario=self.scenario,
                config=self.config,
                trained=self.trained,
                state=state,
            ),
        )

    def _frame_loop(self, state: _RunState, tracer) -> RunResult:
        """Advance ``state`` frame by frame until the run completes.

        Each iteration resolves the frame's faults, passes the frame
        through the ingest edge, processes it, and checkpoints if the
        cadence says so. Everything the loop mutates lives on ``state``,
        so checkpointing mid-run is just pickling ``state`` between two
        frames.
        """
        config = self.config
        run_span = tracer.span(
            "run",
            policy=config.policy,
            scenario=self.scenario.name,
            horizon=config.horizon,
        )
        with run_span:
            for frame_idx in range(state.next_frame, state.total_frames):
                frame_faults = state.faults.at(frame_idx, state.camera_ids)
                ingest = state.ingest.pass_frame(
                    frame_idx,
                    frame_idx * state.dt,
                    is_key=self._scheduled_key(frame_idx),
                    bursting=frame_faults.bursting,
                )
                self._process_frame(
                    state, tracer, frame_idx, frame_faults, ingest
                )
                # Between two frames the run is crash-consistent: snapshot
                # the state if the checkpoint cadence (or a simulated
                # interruption) says so.
                if config.checkpoint_path is None:
                    continue
                done = state.next_frame
                if (
                    config.stop_after_frames is not None
                    and done == config.stop_after_frames
                    and done < state.total_frames
                ):
                    self._save_state(state)
                    # The post-run accounting must run exactly once per
                    # run, at completion — the resumed continuation will
                    # do it.
                    return state.result
                if (
                    config.checkpoint_every > 0
                    and done % config.checkpoint_every == 0
                ):
                    self._save_state(state)
        self._finalize(state)
        return state.result

    def _record_ingest(
        self, tracer, registry: MetricsRegistry, ingest: FrameIngest
    ) -> None:
        """Surface one frame's non-trivial ingest events: spans, counters."""
        for cam_id in sorted(ingest.stalled):
            with tracer.span("ingest.stall", camera=cam_id):
                pass
            registry.counter(
                "ingest_stalled_frames_total", camera=cam_id
            ).inc()
        for cam_id in sorted(ingest.stale_drops):
            with tracer.span(
                "ingest.drop", camera=cam_id,
                frames=ingest.stale_drops[cam_id],
            ):
                pass
        for cam_id in sorted(ingest.folded):
            with tracer.span(
                "ingest.coalesce", camera=cam_id,
                frames=ingest.folded[cam_id],
            ):
                pass
        for cam_id in sorted(ingest.staleness):
            registry.gauge(
                "ingest_staleness_frames", camera=cam_id
            ).set(ingest.staleness[cam_id])

    def _finalize(self, state: _RunState) -> None:
        """Post-run accounting, exactly once per completed run."""
        registry = state.registry
        state.ingest.finish(registry, export=state.faults.has_ingest_bursts)
        # Channel and guard counters are a fault run's export only.
        if state.faults and state.scheduler is not None:
            for cam_id, channel in state.scheduler.channels.items():
                if channel.messages_dropped:
                    registry.counter(
                        "messages_dropped_total", camera=cam_id
                    ).inc(channel.messages_dropped)
                    registry.counter(
                        "bytes_dropped_total", camera=cam_id
                    ).inc(channel.bytes_dropped)
                if channel.messages_corrupted:
                    registry.counter(
                        "messages_corrupted_total", camera=cam_id
                    ).inc(channel.messages_corrupted)
                if channel.giveups:
                    registry.counter(
                        "link_giveups_total", camera=cam_id
                    ).inc(channel.giveups)
            # Receiver-guard verdicts, both directions: the camera-side
            # assignment guards and the scheduler-side report guards.
            for cam_id in sorted(state.nodes):
                guards = [state.nodes[cam_id].guard]
                report_guard = state.scheduler.report_guards.get(cam_id)
                if report_guard is not None:
                    guards.append(report_guard)
                corrupt = sum(g.corrupt for g in guards)
                duplicates = sum(g.duplicates for g in guards)
                reordered = sum(g.reordered for g in guards)
                if corrupt:
                    registry.counter(
                        "wire_corrupt_dropped_total", camera=cam_id
                    ).inc(corrupt)
                if duplicates:
                    registry.counter(
                        "wire_duplicates_dropped_total", camera=cam_id
                    ).inc(duplicates)
                if reordered:
                    registry.counter(
                        "wire_reordered_total", camera=cam_id
                    ).inc(reordered)
        if state.serving is not None:
            state.serving.export_metrics(registry)

    def _process_frame(
        self, state: _RunState, tracer, frame_idx: int,
        frame_faults: FrameFaults, ingest: FrameIngest,
    ) -> None:
        """Process one frame and fold the results back into ``state``.

        ``frame_faults`` is the frame's resolved fault state (empty on a
        fault-free frame) and ``ingest`` the ingest edge's view of the
        frame; a burst-free frame's view is empty and touches no span,
        counter or RNG draw. The frame runs in named stages, each of
        which reads and writes ``state`` in place: the control plane
        decides the frame's kind, the world is sensed, every live camera
        runs the frame, and a key frame ends in the central stage.
        """
        registry = state.registry
        control = self._control_plane(state, frame_idx, frame_faults, ingest)
        is_key = control.is_key
        frame_start = self.clock.now()

        frame_tags = {"frame": frame_idx, "key": is_key}
        if state.faults:
            frame_tags["forced"] = control.forced_key
        with tracer.span("frame", **frame_tags):
            self._apply_frame_faults(
                tracer, registry, frame_faults, state.nodes, control.forced_key
            )
            for transition in control.transitions:
                self._record_transition(tracer, registry, transition)
            if ingest.any_active:
                self._record_ingest(tracer, registry, ingest)
            sensed = self._sense(state, tracer, frame_idx, frame_faults, control)
            overheads: Dict[str, float] = {}
            if control.transitions:
                # Restore/sync/claim-broadcast time of the leadership
                # change, modeled through the link and overhead models,
                # lands on this frame.
                overheads["failover"] = sum(t.cost_ms for t in control.transitions)
            with tracer.span("central_stage" if is_key else "distributed_stage"):
                cams = self._camera_pass(state, tracer, control, sensed, ingest, overheads)
                if is_key:
                    self._central_stage(state, tracer, frame_idx, frame_faults, control, cams)
                    registry.counter("key_frames_total").inc()
                else:
                    registry.counter("regular_frames_total").inc()
                    registry.counter("slices_total").inc(sum(cams.n_slices.values()))
            overheads["central"] = state.central_amortized
            if state.health is not None:
                self._observe_fleet_health(
                    state, tracer, frame_idx, frame_faults, sensed, cams, overheads
                )

        registry.counter("frames_total").inc()
        registry.histogram("frame_wall_ms").observe(
            (self.clock.now() - frame_start) * 1e3
        )
        for cam_id, ms in cams.inference.items():
            registry.histogram("inference_ms", camera=cam_id).observe(ms)
        coverage_lost = sensed.coverage_lost
        if state.faults and coverage_lost:
            registry.counter(
                "coverage_lost_object_frames_total"
            ).inc(len(coverage_lost))
        record = FrameRecord(
            frame_index=frame_idx,
            is_key_frame=is_key,
            inference_ms=cams.inference,
            visible_gt=sensed.visible_gt,
            detected_gt=frozenset(cams.detected),
            overheads_ms=overheads,
            n_slices=cams.n_slices,
            coverage_lost=coverage_lost,
        )
        state.invariants.observe_frame(
            frame_idx, sensed.visible_gt, coverage_lost
        )
        state.result.add(record)
        if state.serving is not None:
            state.serving.on_frame(record)
        # Between two frames the run is crash-consistent.
        state.next_frame = frame_idx + 1

    def _scheduled_key(self, frame_idx: int) -> bool:
        """Is ``frame_idx`` a key frame by the horizon schedule alone?

        The control plane may add a forced key frame or skip this one.
        """
        return self.config.policy == "full" or frame_idx % self.config.horizon == 0

    def _control_plane(
        self, state: _RunState, frame_idx: int, frame_faults: FrameFaults,
        ingest: FrameIngest,
    ) -> _Control:
        """Membership, failover and the frame's kind, before the frame span.

        Advances the failover protocol one frame, collects the reasons
        to re-run the central stage early, decides whether this is a key
        frame, and books a key frame that lands in a scheduler outage.
        """
        # Membership view of this frame: transitions the watchdog took at
        # the end of frame N take effect on frame N+1, and the invariant
        # monitor sees the same view the frame is processed under (R5/R6).
        quarantined = probation = frozenset()
        health = state.health
        if health is not None:
            quarantined = health.quarantined()
            probation = health.in_probation()
            state.invariants.observe_membership(frame_idx, quarantined, health.membership_epoch)
        down = frame_faults.down
        # Cameras whose frame is stuck behind a burst process nothing this
        # tick, but they are *not* down: they still heartbeat and their
        # crash/rejoin membership is untouched.
        stalled = ingest.stalled
        effective_down = down | stalled if stalled else down
        if quarantined:
            # A quarantined camera processes nothing: it is out of the
            # fleet until the watchdog walks it through probation.
            effective_down = effective_down | quarantined
        # Scheduler failover: advance the heartbeat/lease protocol and
        # the partition (split-brain) machinery one frame. While nobody
        # leads, key frames are suppressed and the fleet runs
        # distributed-only on last-known masks. Each acting authority
        # schedules its own reachable side of any cut; without failover
        # the primary is the one authority over every live camera.
        live = [c for c in state.camera_ids if c not in down]
        failover = state.failover
        transitions: Tuple[FailoverTransition, ...] = ()
        central_ok = True
        if failover is None:
            authorities = (Authority(PRIMARY, 0, frozenset(live)),)
        else:
            cut = sorted(frame_faults.sched_partitioned & frozenset(live))
            stepped = (
                failover.step(frame_idx, frame_faults.scheduler_down, live),
                failover.step_partition(frame_idx, cut, live),
            )
            transitions = tuple(t for t in stepped if t is not None)
            central_ok = failover.central_available
            authorities = failover.authorities(live, cut)
        # Reasons to re-run the central stage before the horizon ends:
        # a camera crashed or rejoined (a quarantined camera's churn, the
        # flap signature, is the watchdog's to manage and masked out); the
        # watchdog changed membership last frame or a camera is warming
        # up in probation; a coalesced ingest backlog; a leadership
        # change (the new leader re-runs the central stage from its
        # replica); or the primary reclaiming the fleet after a cut heals.
        visible_down = down - quarantined
        resync = (
            visible_down != state.prev_down
            or state.health_forced_key
            or bool(probation)
            or ingest.forced_key
            or bool(transitions)
            or (failover is not None and failover.reclaim_pending)
        )
        state.prev_down = visible_down
        state.health_forced_key = False
        scheduled = self._scheduled_key(frame_idx)
        forced_key = resync and state.scheduler is not None and not scheduled
        key_due = scheduled or forced_key
        if key_due and not central_ok:
            # A scheduled (or forced) key frame lands in the outage
            # window: skip it, everyone's decision goes one horizon
            # staler.
            state.registry.counter("skipped_key_frames_total").inc()
            for cam_id in live:
                self._set_staleness(state, cam_id, state.stale_horizons[cam_id] + 1)
        return _Control(
            key_due and central_ok, forced_key, quarantined, probation,
            effective_down, authorities, transitions,
        )

    def _sense(
        self, state: _RunState, tracer, frame_idx: int,
        frame_faults: FrameFaults, control: _Control,
    ) -> _Sensed:
        """The frame, each camera's view of it, and the recall ledger.

        The frame and each camera's view of it come from the run's
        trajectory; a lagging camera sees an older frame. Every frame
        carries its projection cache, which every consumer (occlusion,
        coverage, detection, new regions, health) shares instead of
        re-projecting. Objects whose every covering camera is down are
        coverage loss — no scheduling decision can recover them — and
        are kept out of the recall denominator.
        """
        with tracer.span("sim.advance"):
            trajectory = state.trajectory
            objects, cache = trajectory.frame(frame_idx)
            drift_lags = frame_faults.drift_lags
            views: Dict[int, Frame] = {
                cam_id: trajectory.view(
                    frame_idx,
                    drifted_lag(lag, drift_lags.get(cam_id, 0), state.lag_depth)
                    if drift_lags
                    else lag,
                )
                for cam_id, lag in state.camera_lags.items()
            }
            self._apply_frozen_views(state, frame_faults, views)
            multipliers: Dict[int, Dict[int, float]] = {}
            occlusion = state.occlusion
            if occlusion is None:
                # Whole-frame coverage in one table pull; its keys are
                # exactly the ids some camera can observe.
                table = cache.coverage_table(objects)
            else:
                fractions_by_cam = {
                    cam.camera_id: visible_fractions(cam, objects, boxes=cache.boxes(cam, objects))
                    for cam in state.rig
                }
                multipliers = {
                    cam_id: {
                        oid: occlusion.miss_multiplier(frac)
                        for oid, frac in fractions.items()
                    }
                    for cam_id, fractions in fractions_by_cam.items()
                }
                table = {}
                for o in objects:
                    covering = [
                        cam_id
                        for cam_id, fractions in fractions_by_cam.items()
                        if occlusion.effectively_visible(fractions.get(o.object_id, 0.0))
                    ]
                    if covering:
                        table[o.object_id] = covering
            down = control.effective_down
            if down:
                coverage_lost = frozenset(
                    oid for oid, covering in table.items() if down.issuperset(covering)
                )
                visible_gt = frozenset(table) - coverage_lost
            else:
                # No camera is down: nothing is lost, and the table's
                # keys are the recall denominator as they stand.
                visible_gt, coverage_lost = frozenset(table), frozenset()
        return _Sensed(objects, cache, views, multipliers, visible_gt, coverage_lost)

    def _camera_pass(
        self, state: _RunState, tracer, control: _Control, sensed: _Sensed,
        ingest: FrameIngest, overheads: Dict[str, float],
    ) -> _CameraPass:
        """Run the frame on every camera that is not effectively down.

        A key frame detects and tracks on the full frame and yields the
        camera's report for the central stage; a regular frame runs the
        distributed stage under the camera's current policy. The slowest
        camera's per-stage overheads land in ``overheads``.
        """
        is_key = control.is_key
        count_keys = is_key and state.health is not None
        effective_down = control.effective_down
        views = sensed.views
        multipliers_by_cam = sensed.multipliers
        inference: Dict[int, float] = {}
        detected: set = set()
        key_detected: Dict[int, int] = {}
        reports: Dict[int, list] = {}
        n_slices: Dict[int, int] = {}
        tracking: List[float] = []
        distributed: List[float] = []
        batching: List[float] = []
        for cam_id, node in state.nodes.items():
            if cam_id in effective_down:
                continue
            view, view_cache = views[cam_id]
            multipliers = multipliers_by_cam.get(cam_id)
            if is_key:
                with tracer.span("camera.key_frame", camera=cam_id):
                    outcome = node.process_key_frame(
                        view, multipliers, boxes=view_cache.boxes(node.camera, view)
                    )
                if cam_id in ingest.degraded:
                    # Degraded mode: the camera runs the frame locally
                    # but sits out the central stage to catch up; the
                    # stale-decision fallback keeps it on its last-known
                    # mask.
                    with tracer.span("ingest.degrade", camera=cam_id):
                        pass
                    state.registry.counter("ingest_degraded_frames_total", camera=cam_id).inc()
                    state.ingest.clear_degraded(cam_id)
                else:
                    reports[cam_id] = outcome.report
            else:
                with tracer.span("camera.regular_frame", camera=cam_id):
                    outcome = node.process_regular_frame(
                        view, state.policies[cam_id], multipliers,
                        boxes=view_cache.boxes(node.camera, view),
                    )
                n_slices[cam_id] = outcome.n_slices
                distributed.append(outcome.distributed_ms)
                batching.append(outcome.batching_ms)
            inference[cam_id] = outcome.inference_ms
            tracking.append(outcome.tracking_ms)
            gt_ids = [d.gt_object_id for d in outcome.detections if d.gt_object_id >= 0]
            detected.update(gt_ids)
            if count_keys:
                # Report quality signal for the watchdog: distinct
                # ground-truth objects this camera saw on its key frame.
                key_detected[cam_id] = len(set(gt_ids))
        overheads["tracking"] = max(tracking) if tracking else 0.0
        if not is_key:
            overheads["distributed"] = max(distributed) if distributed else 0.0
            overheads["batching"] = max(batching) if batching else 0.0
        return _CameraPass(inference, detected, key_detected, reports, n_slices)

    def _central_stage(
        self, state: _RunState, tracer, frame_idx: int,
        frame_faults: FrameFaults, control: _Control, cams: _CameraPass,
    ) -> None:
        """Algorithm 1 over the key-frame reports, then guarded delivery.

        Each acting authority schedules the reports it reaches (and
        piggybacks a checkpoint replica when failover is armed). Every
        member camera then applies its delivered assignment, which
        rebuilds its BALB policy, or falls back to its last-known mask.
        """
        scheduler = state.scheduler
        reports = cams.reports
        if scheduler is None or not reports:
            return
        registry = state.registry
        failover = state.failover
        #: camera -> (decision, issuing epoch)
        assignments: Dict[int, Tuple[ScheduleDecision, int]] = {}
        total_retries = 0
        # The authorities' costs overlap in time (the sides of a cut are
        # concurrent), so the amortized charge is the slowest side's.
        central_peak = 0.0
        for authority in control.authorities:
            auth_reports = {c: r for c, r in reports.items() if c in authority.reach}
            if not auth_reports:
                continue
            # A camera leader replicates onward only when the plan has no
            # scheduler partitions: a kept asymmetry, pinned by
            # tests/integration/test_failover.py::TestReplicationAsymmetry.
            replicate_to = None
            if failover is not None and (
                authority.leader_id == PRIMARY
                or not state.faults.has_scheduler_partitions
            ):
                replicate_to = failover.replication_target(sorted(auth_reports))
            decision = scheduler.schedule(
                auth_reports,
                frame_idx,
                link_faults=frame_faults.link_faults,
                replicate_to=replicate_to,
                no_authority=control.probation,
            )
            if replicate_to is not None and decision.checkpoint is not None:
                self._record_replication(
                    tracer, registry, failover, decision.checkpoint, replicate_to,
                    replicate_to in decision.delivered,
                )
            state.invariants.observe_issue(frame_idx, authority.epoch, authority.leader_id)
            for cam_id in sorted(authority.reach):
                assignments[cam_id] = (decision, authority.epoch)
            total_retries += decision.comm_retries
            central_peak = max(central_peak, decision.central_ms + decision.comm_ms)
        state.central_amortized = central_peak / self.config.horizon
        for cam_id, node in state.nodes.items():
            if cam_id in frame_faults.down or cam_id in control.quarantined:
                # R5: a quarantined camera is out of the membership — no
                # assignment download may reach it until probation
                # readmits it.
                continue
            entry = assignments.get(cam_id)
            # Hardened wire protocol: a delivered download passes the
            # camera's receiver guard (checksum, dedupe, epoch fence)
            # before it may be applied.
            if (
                entry is not None
                and cam_id in entry[0].delivered
                and self._admit_assignment(
                    tracer, registry, node, cam_id, frame_idx, entry[1], entry[0]
                )
            ):
                decision, epoch = entry
                node.apply_schedule(
                    decision.assigned.get(cam_id, []),
                    decision.shadows.get(cam_id, {}),
                )
                state.invariants.observe_applied(frame_idx, cam_id, epoch)
                self._set_staleness(state, cam_id, 0)
                if self.config.policy == "balb":
                    state.policies[cam_id] = self._balb_policy_for(
                        scheduler, cam_id, decision.priority_order
                    )
            else:
                # Stale-decision fallback: the camera keeps its
                # regular-frame policy on its last-known mask and
                # priority order.
                registry.counter("assignment_fallbacks_total", camera=cam_id).inc()
                self._set_staleness(state, cam_id, state.stale_horizons[cam_id] + 1)
        if state.faults and total_retries:
            registry.counter("message_retries_total").inc(total_retries)

    @staticmethod
    def _set_staleness(state: _RunState, cam_id: int, horizons: int) -> None:
        """Record how many horizons old ``cam_id``'s assignment is."""
        state.stale_horizons[cam_id] = horizons
        if state.faults:
            state.registry.gauge("assignment_staleness_horizons", camera=cam_id).set(horizons)

    def _apply_frozen_views(
        self,
        state: _RunState,
        frame_faults: FrameFaults,
        views: Dict[int, Frame],
    ) -> None:
        """Serve each frozen camera the snapshot it froze on, bit-exact.

        On the first frame of a ``sensor_freeze`` window a copy of the
        camera's current (lagged) view is captured, with a projection
        cache of its own; for the rest of the window the camera detects
        against that captured frame, so its frame-content token repeats —
        the signature the watchdog keys on. When the freeze lifts, the
        capture is dropped and the live view resumes.
        """
        frozen = frame_faults.frozen
        if not frozen and not state.frozen_views:
            return
        for cam_id in sorted(views):
            if cam_id in frozen:
                if cam_id not in state.frozen_views:
                    state.frozen_views[cam_id] = (
                        snapshot_objects(views[cam_id][0]),
                        FrameProjectionCache(state.rig.cameras),
                    )
                views[cam_id] = state.frozen_views[cam_id]
            else:
                state.frozen_views.pop(cam_id, None)

    def _observe_fleet_health(
        self,
        state: _RunState,
        tracer,
        frame_idx: int,
        frame_faults: FrameFaults,
        sensed: _Sensed,
        cams: _CameraPass,
        overheads: Dict[str, float],
    ) -> None:
        """End-of-frame health pass: signals -> watchdog -> membership.

        Builds every camera's :class:`HealthSignals` from what this frame
        actually exposed (liveness, the content token of the view the
        camera detected against, its drift skew, its key-frame report
        quality), folds them into the watchdog, and acts on the
        transitions: spans + counters always, and on a membership change
        a re-fit of the scheduler's association structures over the
        surviving members (charged to this frame's overhead ledger) plus
        an early key frame next frame.
        """
        health = state.health
        assert health is not None
        registry = state.registry
        key_detected = cams.key_detected
        visible: Dict[int, int] = {}
        if key_detected:
            # Denominator of the key-frame report-quality signal: how
            # many objects each camera could have seen this frame.
            coverage = sensed.cache.coverage_table(sensed.objects)
            for covered in coverage.values():
                for cam in covered:
                    visible[cam] = visible.get(cam, 0) + 1
        signals: Dict[int, HealthSignals] = {}
        # Cameras that see the same frame share one view list: hash each
        # distinct view once (the views dict keeps their ids live).
        tokens: Dict[int, int] = {}
        for cam in state.camera_ids:
            alive = cam not in frame_faults.down
            view = sensed.views[cam][0]
            token = tokens.get(id(view))
            if token is None:
                # An empty view carries no content to hash; feeding a
                # frame-unique token (negative, outside crc32's range)
                # keeps an empty scene from reading as a frozen sensor.
                token = content_token(view) if view else -frame_idx - 1
                tokens[id(view)] = token
            quality: Optional[float] = None
            if cam in key_detected:
                quality = min(1.0, key_detected[cam] / max(1, visible.get(cam, 0)))
            signals[cam] = HealthSignals(
                alive=alive,
                content_token=token,
                skew_frames=frame_faults.drift_lags.get(cam, 0),
                quality=quality,
            )
        transitions = health.observe(frame_idx, signals)
        for t in transitions:
            with tracer.span(
                "health." + t.state.value,
                camera=t.camera_id,
                reason=t.reason,
                epoch=t.epoch,
            ):
                pass
            if t.state is HealthState.QUARANTINED:
                registry.counter(
                    "health_quarantines_total", camera=t.camera_id
                ).inc()
            elif t.state is HealthState.SUSPECT:
                registry.counter(
                    "health_suspects_total", camera=t.camera_id
                ).inc()
            elif t.state is HealthState.PROBATION:
                registry.counter(
                    "health_probations_total", camera=t.camera_id
                ).inc()
            elif t.previous is HealthState.PROBATION:
                registry.counter(
                    "health_readmissions_total", camera=t.camera_id
                ).inc()
        if any(t.membership_change for t in transitions):
            state.health_forced_key = True
            registry.gauge("membership_epoch").set(
                health.membership_epoch
            )
            if state.scheduler is not None:
                members = [
                    c
                    for c in state.camera_ids
                    if c not in health.quarantined()
                ]
                if members:
                    # Deterministic membership re-fit: co-visibility
                    # masks and BALB's candidate set are rebuilt over
                    # the survivors; the quarantined camera's cells go
                    # to its overlapping peers. Modeled cost lands on
                    # this frame.
                    refit_ms = state.scheduler.refit_members(members)
                    overheads["refit"] = (
                        overheads.get("refit", 0.0) + refit_ms
                    )
                    with tracer.span(
                        "health.refit",
                        members=len(members),
                        epoch=health.membership_epoch,
                    ):
                        pass
                    registry.counter("membership_refits_total").inc()
        in_probation = health.in_probation()
        if in_probation:
            registry.counter("health_probation_frames_total").inc(
                len(in_probation)
            )
        for cam in state.camera_ids:
            registry.gauge("health_score", camera=cam).set(
                round(health.score_of(cam), 4)
            )

    def _apply_frame_faults(
        self,
        tracer,
        registry: MetricsRegistry,
        frame_faults: FrameFaults,
        nodes: Dict[int, CameraNode],
        forced_key: bool,
    ) -> None:
        """Surface this frame's fault state: spans, counters, GPU throttle.

        Runs on every frame; an empty frame resets every camera's GPU and
        fade factors to 1.0 and records nothing.
        """
        for event in frame_faults.started:
            with tracer.span(
                "fault." + event.kind.value,
                camera=-1 if event.camera_id is None else event.camera_id,
                frames=0 if event.duration is None else event.duration,
                magnitude=event.magnitude,
            ):
                pass
            registry.counter(
                "fault_events_total", kind=event.kind.value
            ).inc()
        for cam_id, node in nodes.items():
            node.executor.set_slowdown(
                frame_faults.gpu_factor.get(cam_id, 1.0)
            )
            node.set_quality_fade(frame_faults.fade.get(cam_id, 1.0))
        for cam_id in sorted(frame_faults.down):
            registry.counter(
                "camera_down_frames_total", camera=cam_id
            ).inc()
        for cam_id in sorted(frame_faults.frozen):
            registry.counter(
                "sensor_frozen_frames_total", camera=cam_id
            ).inc()
        for cam_id in sorted(frame_faults.drift_lags):
            registry.gauge(
                "clock_drift_lag_frames", camera=cam_id
            ).set(frame_faults.drift_lags[cam_id])
        for cam_id in sorted(frame_faults.fade):
            registry.gauge(
                "quality_fade_factor", camera=cam_id
            ).set(round(frame_faults.fade[cam_id], 4))
        if frame_faults.scheduler_down:
            registry.counter("scheduler_down_frames_total").inc()
        if forced_key:
            registry.counter("forced_key_frames_total").inc()

    def _record_transition(self, tracer, registry, transition) -> None:
        """Surface one leadership change: span, counters, recovery time."""
        with tracer.span(
            "failover." + transition.kind,
            frame=transition.frame,
            leader=transition.leader_id,
            replica_frame=(
                -1
                if transition.replica_frame is None
                else transition.replica_frame
            ),
            epoch=transition.epoch,
        ):
            pass
        if transition.kind == "takeover":
            registry.counter("failover_takeovers_total").inc()
        elif transition.kind == "handback":
            registry.counter("failover_handbacks_total").inc()
        elif transition.kind == "split_takeover":
            registry.counter("failover_split_takeovers_total").inc()
        else:
            registry.counter("failover_reunites_total").inc()
        if transition.recovery_ms is not None:
            registry.histogram("failover_recovery_ms").observe(
                transition.recovery_ms
            )

    def _record_replication(
        self,
        tracer,
        registry,
        failover: FailoverManager,
        checkpoint,
        target: int,
        delivered: bool,
    ) -> None:
        """Account one piggybacked checkpoint replication attempt."""
        failover.record_replication(checkpoint, delivered)
        with tracer.span(
            "failover.replicate",
            target=target,
            delivered=delivered,
            bytes=checkpoint.payload_bytes(),
        ):
            pass
        registry.counter(
            "failover_replications_total"
            if delivered
            else "failover_stale_replicas_total"
        ).inc()

    def _admit_assignment(
        self,
        tracer,
        registry,
        node: CameraNode,
        cam_id: int,
        frame_idx: int,
        epoch: int,
        decision: ScheduleDecision,
    ) -> bool:
        """One delivered assignment download, through the receiver guard.

        The download is sealed into an :class:`Envelope` (channel
        ``assign:<cam>``, seq = frame index, the issuing authority's
        epoch) and replayed against the camera's :class:`ChannelGuard`
        together with its wire-level fault record: corrupted attempts
        bounce off the checksum, a duplicated final copy is deduped, a
        reordered delivery is held (the decision it carries is already
        superseded), and a stale-epoch claim from a deposed scheduler is
        fenced. Returns whether the assignment may be applied.
        """
        outcome = decision.down_outcomes.get(cam_id)
        env = Envelope.seal(
            f"assign:{cam_id}",
            frame_idx,
            epoch,
            ",".join(
                str(t) for t in decision.assigned.get(cam_id, ())
            ),
        )
        admission = node.guard.replay(env, outcome)
        if outcome is not None:
            for _ in range(outcome.corrupt_attempts):
                with tracer.span("wire.corrupt", camera=cam_id):
                    pass
            if outcome.reordered:
                # A held reorder is never booked as fenced, whatever
                # the guard's verdict on its epoch.
                with tracer.span("wire.reorder", camera=cam_id):
                    pass
                return False
            if outcome.duplicated:
                with tracer.span("wire.duplicate", camera=cam_id):
                    pass
        if admission.accepted:
            return True
        if admission.reason == DROP_STALE_EPOCH:
            with tracer.span(
                "wire.fenced", camera=cam_id, epoch=epoch
            ):
                pass
            registry.counter(
                "failover_fenced_total", camera=cam_id
            ).inc()
        return False

    # ------------------------------------------------------------------
    def _build_nodes(self, rig: CameraRig, dt: float) -> Dict[int, CameraNode]:
        device_map = self.scenario.device_map()
        nodes: Dict[int, CameraNode] = {}
        for cam in rig:
            device = device_map[cam.camera_id]
            model = latency_model_for(device, full_frame=cam.frame_size)
            nodes[cam.camera_id] = CameraNode(
                camera=cam,
                latency_model=model,
                seed=self.config.seed * 101 + cam.camera_id,
                gpu_jitter=self.config.gpu_jitter,
                overhead_model=self.overheads,
                frame_dt=dt,
            )
        return nodes

    def _build_scheduler(self, rig: CameraRig) -> CentralScheduler:
        assert self.trained.associator is not None
        channels = {
            # Per-channel seed derived from the run seed: distinct cameras
            # get distinct, reproducible jitter/loss streams.
            cam.camera_id: DuplexChannel(seed=self.config.seed + cam.camera_id)
            for cam in rig
        }
        positions = {
            c.camera_id: (c.pose.x, c.pose.y) for c in rig
        }
        return CentralScheduler(
            profiles=self.trained.profiles,
            associator=self.trained.associator,
            frame_sizes={c.camera_id: c.frame_size for c in rig},
            typical_box_sizes=self.trained.typical_box_sizes,
            size_set=next(iter(self.trained.profiles.values())).size_set,
            mode=self.config.policy,
            overhead_model=self.overheads,
            channels=channels,
            redundancy=self.config.redundancy,
            camera_positions=positions,
        )

    def _static_policies(
        self, rig: CameraRig, scheduler: Optional[CentralScheduler]
    ) -> Dict[int, RegularFramePolicy]:
        policy_name = self.config.policy
        if policy_name == "sp":
            assert scheduler is not None
            return {
                cam.camera_id: StaticPartitioningPolicy(
                    camera_id=cam.camera_id,
                    mask=scheduler.masks[cam.camera_id],
                    capacities=scheduler.capacities,
                )
                for cam in rig
            }
        if policy_name == "balb-cen":
            return {cam.camera_id: CentralOnlyPolicy() for cam in rig}
        if policy_name == "balb":
            assert scheduler is not None
            # Placeholder priorities until the first key frame decides.
            order = tuple(sorted(c.camera_id for c in rig))
            return {
                cam_id: self._balb_policy_for(scheduler, cam_id, order)
                for cam_id in scheduler.masks
            }
        return {cam.camera_id: IndependentPolicy() for cam in rig}

    def _balb_policy_for(
        self,
        scheduler: CentralScheduler,
        cam_id: int,
        priority_order: Tuple[int, ...],
    ) -> RegularFramePolicy:
        """Rebuild one camera's BALB policy from its current mask."""
        return BALBPolicy(
            DistributedPolicy(
                camera_id=cam_id,
                mask=scheduler.masks[cam_id],
                priority_order=priority_order,
            )
        )


def run_policy(
    scenario: Scenario,
    policy: str,
    config: Optional[PipelineConfig] = None,
    trained: Optional[TrainedModels] = None,
) -> RunResult:
    """Convenience wrapper: run one policy with defaults."""
    if config is None:
        config = PipelineConfig(policy=policy)
    else:
        config = replace(config, policy=policy)
    return Pipeline(scenario, config, trained).run()
