"""The central scheduler node.

Runs at every key frame: receives each camera's detected-object report,
associates them into global objects, solves the MVS instance with the
central-stage BALB algorithm (or the static-partitioning rule for the SP
baseline), and returns per-camera assignments, the camera priority order
and communication cost. Cell masks are computed once — they depend only on
the static camera poses, through the association models.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from repro.association.matcher import (
    CrossCameraMatcher,
    GlobalObject,
    LocalObservation,
)
from repro.association.pairwise import PairwiseAssociator
from repro.core.balb import balb_central
from repro.core.masks import CameraMask, build_camera_masks, capacity_owner
from repro.core.problem import MVSInstance, SchedObject
from repro.core.redundancy import balb_redundant
from repro.devices.profiler import DeviceProfile
from repro.geometry.box import BBox, quantize_size
from repro.net.envelope import ChannelGuard, Envelope
from repro.net.link import DuplexChannel, LinkFault, TransferOutcome
from repro.net.messages import (
    AssignmentMessage,
    DetectionReport,
    SchedulerCheckpoint,
)
from repro.obs.trace import get_tracer
from repro.runtime.overhead import OverheadModel

ReportEntry = Tuple[int, BBox, int]  # (track_id, bbox, gt_id)


@dataclass
class ScheduleDecision:
    """What the central scheduler sends back after a key frame."""

    assigned: Dict[int, List[int]]  # camera -> local track ids to inspect
    shadows: Dict[int, Dict[int, int]]  # camera -> {track_id: assigned_cam}
    priority_order: Tuple[int, ...]
    n_global_objects: int
    central_ms: float  # association + BALB, modeled
    comm_ms: float  # report upload + assignment download
    global_objects: List[GlobalObject] = field(default_factory=list)
    #: Cameras whose assignment download actually arrived. A camera not
    #: in this set must fall back to its stale decision.
    delivered: FrozenSet[int] = frozenset()
    #: Cameras whose report upload was lost (their objects were invisible
    #: to this round of association).
    dropped_reports: FrozenSet[int] = frozenset()
    #: Lost message attempts across the whole exchange (drops + give-ups).
    comm_retries: int = 0
    #: Failover replica piggybacked on one camera's assignment download
    #: (None unless the scheduler was asked to replicate this round).
    checkpoint: Optional[SchedulerCheckpoint] = None
    #: Per-camera download outcome for faulted channels: the wire-level
    #: duplicate/reorder/corruption record the receiver guard consumes.
    down_outcomes: Dict[int, TransferOutcome] = field(default_factory=dict)


class CentralScheduler:
    """Key-frame coordinator implementing the BALB central stage."""

    def __init__(
        self,
        profiles: Dict[int, DeviceProfile],
        associator: PairwiseAssociator,
        frame_sizes: Dict[int, Tuple[int, int]],
        typical_box_sizes: Dict[int, float],
        size_set: Sequence[int],
        mode: str = "balb",
        mask_grid: Tuple[int, int] = (16, 12),
        overhead_model: Optional[OverheadModel] = None,
        channels: Optional[Dict[int, DuplexChannel]] = None,
        redundancy: int = 1,
        camera_positions: Optional[Dict[int, Tuple[float, float]]] = None,
    ) -> None:
        if redundancy < 1:
            raise ValueError("redundancy must be >= 1")
        if mode not in ("balb", "balb-cen", "sp"):
            raise ValueError(f"unknown scheduler mode {mode!r}")
        if set(profiles) != set(frame_sizes):
            raise ValueError("profiles and frame_sizes must cover the same cameras")
        self.profiles = dict(profiles)
        self.mode = mode
        self.size_set = tuple(sorted(size_set))
        self.matcher = CrossCameraMatcher(associator)
        self.overheads = overhead_model or OverheadModel()
        self.channels = channels or {}
        self.redundancy = redundancy
        self.camera_positions = dict(camera_positions or {})
        # Mask-fit inputs are retained so membership reconfiguration can
        # re-fit the co-visibility structures over a camera subset.
        self._associator = associator
        self._frame_sizes = dict(frame_sizes)
        self._typical_box_sizes = dict(typical_box_sizes)
        self._mask_grid = mask_grid
        #: Cameras currently in the scheduling membership. Quarantined
        #: cameras are removed by :meth:`refit_members`; their reports
        #: are ignored and no assignment is issued to them.
        self.active_members: FrozenSet[int] = frozenset(profiles)
        self.masks: Dict[int, CameraMask] = build_camera_masks(
            frame_sizes, associator, typical_box_sizes, mask_grid
        )
        #: Receiver guards for the report uplinks: dedupe duplicated
        #: uploads and reject corrupted ones (one per camera, lazily).
        self.report_guards: Dict[int, ChannelGuard] = {}
        #: Processing power per camera (1 / full-frame time), the SP weight.
        self.capacities: Dict[int, float] = {
            cam: 1.0 / profile.t_full for cam, profile in profiles.items()
        }

    # ------------------------------------------------------------------
    def refit_members(self, members: Sequence[int]) -> float:
        """Re-fit the co-visibility structures over a camera subset.

        Called on every fleet-membership change (quarantine, probation
        re-entry, full readmission): rebuilds the ownership masks — the
        offline CrossRoI-style redundancy map — over exactly ``members``,
        so a quarantined camera's cells deterministically reassign to the
        overlapping peers that can still see them, and BALB's candidate
        set (the reports the next ``schedule`` round accepts) shrinks to
        the survivors. Returns the modeled re-fit cost in milliseconds,
        charged to the frame that reconfigured.
        """
        members = sorted(set(members) & set(self.profiles))
        if not members:
            raise ValueError("membership re-fit needs at least one camera")
        self.active_members = frozenset(members)
        sizes = {cam: self._frame_sizes[cam] for cam in members}
        typical = {
            cam: self._typical_box_sizes.get(cam, 60.0) for cam in members
        }
        self.masks.update(
            build_camera_masks(
                sizes, self._associator, typical, self._mask_grid
            )
        )
        return self.overheads.central_stage_ms(0, len(members))

    def schedule(
        self,
        reports: Dict[int, List[ReportEntry]],
        frame_index: int = 0,
        link_faults: Optional[Dict[int, LinkFault]] = None,
        replicate_to: Optional[int] = None,
        no_authority: FrozenSet[int] = frozenset(),
    ) -> ScheduleDecision:
        """One central-stage round over the key-frame reports.

        ``link_faults`` (camera -> :class:`LinkFault`) injects message
        loss / latency spikes into the exchange: a report whose upload
        fails after all retries is excluded from association, and a
        camera whose assignment download fails is left out of
        ``decision.delivered`` so the runtime falls back to its stale
        decision. Without faults the exchange is lossless and every
        reporting camera is delivered — the pre-fault behaviour.

        ``replicate_to`` piggybacks a :class:`SchedulerCheckpoint` of
        this round's state on that camera's assignment download (the
        failover warm standby); the extra bytes ride the same modeled
        transfer, and the checkpoint only counts as replicated if the
        download is delivered.

        ``no_authority`` (the probation set) demotes those cameras for
        shared objects: an object another member can also see is never
        assigned to a probation camera — it keeps authority only over
        objects nobody else covers.
        """
        if len(self.active_members) != len(self.profiles):
            # Quarantined cameras are out of the membership: their
            # reports are not associated and they get no assignment.
            reports = {
                cam: entries
                for cam, entries in reports.items()
                if cam in self.active_members
            }
        faults = {
            cam: fault
            for cam, fault in (link_faults or {}).items()
            if not fault.is_clean
        }
        tracer = get_tracer()
        with tracer.span(
            "scheduler.schedule", frame=frame_index, mode=self.mode
        ) as sched_span:
            # Uplink phase: under faults, decide per camera whether the
            # report survived its (retried) upload before associating.
            up_outcomes: Dict[int, TransferOutcome] = {}
            delivered_reports = reports
            if faults and self.channels:
                delivered_reports = {}
                for cam in sorted(reports):
                    fault = faults.get(cam)
                    channel = self.channels.get(cam)
                    if fault is None or channel is None:
                        delivered_reports[cam] = reports[cam]
                        continue
                    report = self._report_message(
                        cam, reports[cam], frame_index
                    )
                    outcome = channel.up_transfer(report.payload_bytes(), fault)
                    up_outcomes[cam] = outcome
                    if outcome.delivered and self._admit_report(
                        cam, report, outcome
                    ):
                        delivered_reports[cam] = reports[cam]
            with tracer.span("scheduler.associate") as assoc_span:
                observations = {
                    cam: [
                        LocalObservation(
                            camera_id=cam, track_id=tid, bbox=box, gt_id=gt
                        )
                        for tid, box, gt in entries
                    ]
                    for cam, entries in delivered_reports.items()
                }
                global_objects = self.matcher.associate(observations)
                assoc_span.set_tag("n_global_objects", len(global_objects))
            instance = self._build_instance(global_objects)

            with tracer.span("scheduler.solve", mode=self.mode):
                if self.mode in ("balb", "balb-cen"):
                    if self.redundancy > 1:
                        redundant = balb_redundant(
                            instance,
                            k=self.redundancy,
                            include_full_frame=True,
                            vantage_positions=self.camera_positions or None,
                        )
                        assignment = redundant.assignment
                        priority = redundant.priority_order
                    else:
                        result = balb_central(instance, include_full_frame=True)
                        assignment = result.assignment
                        priority = result.priority_order
                else:  # static partitioning
                    assignment = self._sp_assignment(global_objects)
                    priority = tuple(
                        sorted(
                            self.profiles,
                            key=lambda cam: (-self.capacities[cam], cam),
                        )
                    )

            if no_authority:
                self._demote_probation(
                    assignment, global_objects, no_authority
                )

            assigned: Dict[int, List[int]] = {cam: [] for cam in self.profiles}
            shadows: Dict[int, Dict[int, int]] = {
                cam: {} for cam in self.profiles
            }
            for obj in global_objects:
                chosen = assignment.get(obj.global_id)
                if chosen is None:
                    continue
                chosen_set = chosen if isinstance(chosen, tuple) else (chosen,)
                primary = chosen_set[0]
                for cam, obs in obj.members.items():
                    if cam in chosen_set:
                        assigned[cam].append(obs.track_id)
                    else:
                        shadows[cam][obs.track_id] = primary

            n_objects = len(global_objects)
            central_ms = self.overheads.central_stage_ms(
                n_objects, len(self.profiles)
            )
            checkpoint: Optional[SchedulerCheckpoint] = None
            extra_down: Dict[int, int] = {}
            if replicate_to is not None:
                checkpoint = self._build_checkpoint(
                    frame_index, priority, assigned, global_objects
                )
                extra_down[replicate_to] = checkpoint.payload_bytes()
            with tracer.span("scheduler.comm"):
                comm_ms, delivered, retries, down_outcomes = (
                    self._communication_ms(
                        reports, assigned, priority, frame_index,
                        faults, up_outcomes, extra_down,
                    )
                )
            sched_span.set_tag("n_global_objects", n_objects)
        return ScheduleDecision(
            assigned=assigned,
            shadows=shadows,
            priority_order=priority,
            n_global_objects=n_objects,
            central_ms=central_ms,
            comm_ms=comm_ms,
            global_objects=global_objects,
            delivered=delivered,
            dropped_reports=frozenset(reports) - frozenset(delivered_reports),
            comm_retries=retries,
            checkpoint=checkpoint,
            down_outcomes=down_outcomes,
        )

    def _demote_probation(
        self,
        assignment: Dict[int, object],
        global_objects: Sequence[GlobalObject],
        no_authority: FrozenSet[int],
    ) -> None:
        """Strip probation cameras of authority over shared objects.

        For every object assigned to a probation camera that at least
        one full member also observes, the assignment deterministically
        moves to the highest-capacity full member (ties broken by camera
        id). Objects only the probation camera can see stay with it —
        demotion must never create coverage loss.
        """
        for obj in global_objects:
            chosen = assignment.get(obj.global_id)
            if chosen is None:
                continue
            chosen_tuple = isinstance(chosen, tuple)
            chosen_set = chosen if chosen_tuple else (chosen,)
            if not any(cam in no_authority for cam in chosen_set):
                continue
            alternates = [
                cam for cam in sorted(obj.members) if cam not in no_authority
            ]
            if not alternates:
                continue
            kept = tuple(c for c in chosen_set if c not in no_authority)
            if not kept:
                best = max(
                    alternates,
                    key=lambda c: (self.capacities.get(c, 0.0), -c),
                )
                kept = (best,)
            assignment[obj.global_id] = kept if chosen_tuple else kept[0]

    # ------------------------------------------------------------------
    def _build_instance(
        self, global_objects: Sequence[GlobalObject]
    ) -> MVSInstance:
        """The MVS instance of the associated objects.

        A member's target size is ``quantize_size(bbox.expand(8.0).long_side)``,
        computed from the box's corners with the float expressions of
        ``expand``, ``width``/``height`` and ``long_side``'s ``max``, so no
        expanded box is built.
        """
        objects = []
        for obj in global_objects:
            target_sizes = {}
            for cam, obs in obj.members.items():
                box = obs.bbox
                w = (box.x2 + 8.0) - (box.x1 - 8.0)
                h = (box.y2 + 8.0) - (box.y1 - 8.0)
                target_sizes[cam] = quantize_size(h if h > w else w, self.size_set)
            objects.append(SchedObject(key=obj.global_id, target_sizes=target_sizes))
        return MVSInstance(profiles=self.profiles, objects=tuple(objects))

    def _sp_assignment(
        self, global_objects: Sequence[GlobalObject]
    ) -> Dict[int, int]:
        """SP: each object goes to the static owner of its position.

        Each observing camera checks its own mask; the owner among the
        observers wins. When no observer owns the object's cell (mask
        imperfection), the object is unassigned — the quality cost the
        paper attributes to SP under imperfect correlation models.
        """
        assignment: Dict[int, int] = {}
        for obj in global_objects:
            for cam in sorted(obj.members):
                obs = obj.members[cam]
                mask = self.masks[cam]
                cell = mask.cell_of(obs.bbox)
                coverage = mask.coverage_of(obs.bbox)
                if capacity_owner(coverage, self.capacities, cell, mask.nx) == cam:
                    assignment[obj.global_id] = cam
                    break
        return assignment

    def _admit_report(
        self, cam: int, report: DetectionReport, outcome: TransferOutcome
    ) -> bool:
        """Run one delivered report upload through the scheduler's guard.

        Corrupted attempts bounce off the checksum, a duplicated final
        copy is deduped, and a reordered report arrives after its key
        frame closed — the guard books its sequence number and the
        camera sits this association round out (exactly like a dropped
        report). Reports always travel at epoch 0: cameras are not
        leadership authorities on the uplink.
        """
        guard = self.report_guards.setdefault(cam, ChannelGuard())
        env = Envelope.seal(
            f"report:{cam}",
            report.frame_index,
            0,
            ",".join(str(t) for t in report.track_ids),
        )
        return guard.replay(env, outcome).accepted

    def _report_message(
        self, cam: int, entries: List[ReportEntry], frame_index: int
    ) -> DetectionReport:
        return DetectionReport(
            camera_id=cam,
            frame_index=frame_index,
            boxes=tuple(b for _, b, _ in entries),
            track_ids=tuple(t for t, _, _ in entries),
            gt_ids=tuple(g for _, _, g in entries),
        )

    def _build_checkpoint(
        self,
        frame_index: int,
        priority: Tuple[int, ...],
        assigned: Dict[int, List[int]],
        global_objects: Sequence[GlobalObject],
    ) -> SchedulerCheckpoint:
        """Package this round's state for warm-standby replication."""
        return SchedulerCheckpoint(
            frame_index=frame_index,
            priority_order=tuple(priority),
            assigned={cam: tuple(v) for cam, v in sorted(assigned.items())},
            association={
                obj.global_id: tuple(
                    (cam, obj.members[cam].track_id)
                    for cam in sorted(obj.members)
                )
                for obj in global_objects
            },
        )

    def _communication_ms(
        self,
        reports: Dict[int, List[ReportEntry]],
        assigned: Dict[int, List[int]],
        priority: Tuple[int, ...],
        frame_index: int,
        faults: Dict[int, LinkFault],
        up_outcomes: Dict[int, TransferOutcome],
        extra_down_bytes: Dict[int, int],
    ) -> Tuple[float, FrozenSet[int], int, Dict[int, TransferOutcome]]:
        """Max camera-to-scheduler round trip (cameras talk in parallel).

        Returns ``(worst_ms, delivered_cameras, lost_attempts,
        down_outcomes)``. For a faulted camera the round trip replays its
        recorded uplink outcome and simulates the (retried) assignment
        download; lost attempts surface as ``net.retry`` child spans and
        in the link drop counters, and the download's
        :class:`TransferOutcome` is returned so the receiver guard can
        consume its duplicate/reorder/corruption record. Cameras without
        a channel are delivered for free. ``extra_down_bytes`` (camera ->
        bytes) models piggybacked payload on that camera's download (the
        failover checkpoint replica).
        """
        down_outcomes: Dict[int, TransferOutcome] = {}
        if not self.channels:
            return 0.0, frozenset(reports), 0, down_outcomes
        tracer = get_tracer()
        worst = 0.0
        delivered = {cam for cam in reports if cam not in self.channels}
        lost_attempts = 0
        for cam in sorted(reports):
            channel = self.channels.get(cam)
            if channel is None:
                continue
            report = self._report_message(cam, reports[cam], frame_index)
            reply = AssignmentMessage(
                camera_id=cam,
                frame_index=frame_index,
                assigned_track_ids=tuple(assigned.get(cam, [])),
                camera_priority_order=priority,
                mask_cells=(),  # masks are static; sent once at startup
            )
            down_bytes = reply.payload_bytes() + extra_down_bytes.get(cam, 0)
            fault = faults.get(cam)
            if fault is None:
                worst = max(
                    worst,
                    channel.round_trip_ms(
                        report.payload_bytes(), down_bytes
                    ),
                )
                delivered.add(cam)
                continue
            up = up_outcomes[cam]
            with tracer.span(
                "net.round_trip",
                up_bytes=report.payload_bytes(),
                down_bytes=down_bytes,
                faulted=True,
            ) as span:
                total = up.elapsed_ms
                for _ in range(up.dropped):
                    with tracer.span("net.retry", direction="up"):
                        pass
                if up.delivered:
                    down = channel.down_transfer(down_bytes, fault)
                    down_outcomes[cam] = down
                    total += down.elapsed_ms
                    for _ in range(down.dropped):
                        with tracer.span("net.retry", direction="down"):
                            pass
                    lost_attempts += down.dropped
                    if down.delivered:
                        delivered.add(cam)
                lost_attempts += up.dropped
                span.set_tag("delivered", cam in delivered)
            worst = max(worst, total)
        return worst, frozenset(delivered), lost_attempts, down_outcomes
