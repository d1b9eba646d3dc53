"""Scheduler failover: warm-standby election and takeover cost model.

The central BALB stage is a single point of failure: without this layer
a dead scheduler leaves every camera on its stale mask forever. The
:class:`FailoverManager` closes that gap with the heartbeat/lease
protocol of :mod:`repro.net.heartbeat`:

* While the primary answers heartbeats it also *replicates* a
  :class:`~repro.net.messages.SchedulerCheckpoint` (association state,
  last decision, priority order) to a deterministic warm-standby camera,
  piggybacked on that camera's assignment download.
* When the primary crashes, key frames are suppressed and cameras run
  the distributed stage on their last-known masks — degraded but alive.
* Once the lease expires (one missed heartbeat by default) the standby
  claims leadership: it restores from its replica, broadcasts a
  leadership claim over the real downlinks, and resumes central duty at
  a forced key frame. The whole takeover is modeled through the existing
  link/overhead models and surfaced as ``failover.*`` spans plus a
  recovery-time metric.
* When the primary rejoins, leadership hands back (the standby syncs its
  state up to the primary) at another forced key frame.

The standby order is deterministic — descending device capacity, camera
id as tie-break — so two same-seed runs elect the same leaders.

**Epoch fencing.** Every leadership change increments a monotonically
increasing *epoch*; assignments are sealed with the issuing authority's
epoch and cameras fence (drop) anything from an older epoch (see
:mod:`repro.net.envelope`). This is what makes *partitions* safe: a
``scheduler_partition`` fault cuts a camera subset off from the primary,
and once the cut side's lease expires its best standby claims leadership
over that side — two acting schedulers at once, each over its own
reachable set, but at *different* epochs. When the cut heals, the
primary's first fleet-wide broadcast still carries its old epoch (claim
propagation takes one frame), the cut side fences it, and on the next
frame the primary reunites the fleet at an epoch above the standby's.
With ``fencing=False`` (the legacy protocol) epochs stay at 0, both
sides act with the same authority, and the invariant monitor catches the
split-brain — the regression the fenced protocol exists to prevent.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, Optional, Sequence, Tuple

from repro.net.heartbeat import HeartbeatMonitor, LeaseConfig
from repro.net.link import DuplexChannel
from repro.net.messages import Heartbeat, SchedulerCheckpoint
from repro.runtime.overhead import OverheadModel

#: ``leader_id`` of the dedicated (primary) scheduler node.
PRIMARY = -1


@dataclass(frozen=True)
class FailoverTransition:
    """One leadership change, with its modeled cost.

    ``recovery_ms`` is the time from the scheduler crash until central
    scheduling is restored (detection latency plus takeover cost); it is
    ``None`` for a handback from a standby that was already leading,
    where central duty never lapsed. ``epoch`` is the term the new
    leader acts under (0 everywhere when fencing is off).
    """

    kind: str  # "takeover" | "handback" | "split_takeover" | "reunite"
    frame: int
    leader_id: int  # new leader: camera id, or PRIMARY
    cost_ms: float
    recovery_ms: Optional[float] = None
    replica_frame: Optional[int] = None  # checkpoint the leader restored
    epoch: int = 0


@dataclass(frozen=True)
class Authority:
    """One acting scheduler this frame: who, under which epoch, over whom."""

    leader_id: int  # camera id, or PRIMARY
    epoch: int
    reach: FrozenSet[int]  # cameras this authority can exchange with


class FailoverManager:
    """Frame-quantized failover state machine for one pipeline run."""

    def __init__(
        self,
        camera_ids: Sequence[int],
        capacities: Dict[int, float],
        lease: Optional[LeaseConfig] = None,
        frame_dt_s: float = 0.1,
        channels: Optional[Dict[int, DuplexChannel]] = None,
        overheads: Optional[OverheadModel] = None,
        fencing: bool = True,
    ) -> None:
        if frame_dt_s <= 0:
            raise ValueError("frame_dt_s must be positive")
        self.lease = lease or LeaseConfig()
        self.frame_dt_s = frame_dt_s
        self.channels = channels or {}
        self.overheads = overheads or OverheadModel()
        #: Deterministic standby election order: fastest device first.
        self.standby_order: Tuple[int, ...] = tuple(
            sorted(camera_ids, key=lambda c: (-capacities.get(c, 0.0), c))
        )
        self.primary_alive = True
        self.leader_camera: Optional[int] = None
        self.crash_frame: Optional[int] = None
        self.monitor = HeartbeatMonitor(self.lease)
        self.replica: Optional[SchedulerCheckpoint] = None
        #: Epoch fencing: the current acting-leader term. With
        #: ``fencing=False`` (legacy protocol) every transition keeps
        #: epoch 0 — the split-brain-prone behaviour under partitions.
        self.fencing = fencing
        self.epoch = 0
        self._max_epoch = 0
        #: Partition (split-brain) state: the leader the cut side
        #: elected, its epoch, and its lease monitor.
        self.cut_leader: Optional[int] = None
        self.cut_epoch = 0
        self.cut_monitor: Optional[HeartbeatMonitor] = None
        self.cut_start_frame: Optional[int] = None
        self._heal_pending = False

    # ------------------------------------------------------------------
    @property
    def leader_id(self) -> int:
        """Who holds central duty right now (PRIMARY, or a camera id)."""
        return PRIMARY if self.primary_alive else (
            PRIMARY if self.leader_camera is None else self.leader_camera
        )

    @property
    def central_available(self) -> bool:
        """Can anyone run the central stage this frame?"""
        return self.primary_alive or self.leader_camera is not None

    def replication_target(self, live: Sequence[int]) -> Optional[int]:
        """The camera whose assignment download carries the checkpoint.

        The first live standby that is not currently leading — so a
        leading standby replicates onward to the next in line.
        """
        live_set = set(live)
        for cam in self.standby_order:
            if cam in live_set and cam != self.leader_camera:
                return cam
        return None

    def record_replication(
        self, checkpoint: SchedulerCheckpoint, delivered: bool
    ) -> None:
        """Account one piggybacked checkpoint transfer.

        Only a delivered replica replaces the standby's; a lost one
        leaves it a horizon (or more) stale.
        """
        if delivered:
            self.replica = checkpoint

    # ------------------------------------------------------------------
    def step(
        self, frame: int, scheduler_down: bool, live: Sequence[int]
    ) -> Optional[FailoverTransition]:
        """Advance the protocol one frame; return a transition if any."""
        if not scheduler_down:
            if self.primary_alive:
                self.monitor.observe(frame, True)
                return None
            return self._handback(frame)
        if self.primary_alive:
            # Crash instant: the lease is considered granted through this
            # frame, so detection lands on the next heartbeat boundary.
            # A crash supersedes any ongoing partition: the fleet-wide
            # election below owns leadership from here.
            self.primary_alive = False
            self.crash_frame = frame
            self.monitor = HeartbeatMonitor(self.lease)
            self.monitor.last_renewal_frame = frame
            self._clear_partition()
            return None
        if self.leader_camera is not None:
            if self.leader_camera in set(live):
                return None
            # The leading standby died too: re-elect immediately — the
            # fleet is already in failover mode, so no detection lag.
            return self._takeover(frame, live, redetection=False)
        self.monitor.observe(frame, False)
        if self.monitor.lease_expired:
            return self._takeover(frame, live, redetection=True)
        return None

    # ------------------------------------------------------------------
    def step_partition(
        self, frame: int, cut: Sequence[int], live: Sequence[int]
    ) -> Optional[FailoverTransition]:
        """Advance the partition (split-brain) machinery one frame.

        ``cut`` is the set of live cameras the primary cannot reach this
        frame (from ``FrameFaults.sched_partitioned``). While the cut
        side contains a standby candidate and its lease on the primary
        expires, that candidate claims leadership *over the cut side
        only* (``split_takeover``). When the cut heals, the reunite is
        two-phase: on the heal frame the primary's fleet-wide broadcast
        still carries its pre-split epoch — the cut side fences it — and
        on the next frame the primary reclaims the whole fleet at a
        fresh epoch (``reunite``). Call after :meth:`step`; a crashed
        primary makes partitions moot.
        """
        if not self.primary_alive:
            return None
        live_set = frozenset(live)
        cut_set = frozenset(cut) & live_set
        if self.cut_leader is None:
            if not cut_set:
                self.cut_monitor = None
                self.cut_start_frame = None
                return None
            candidate = next(
                (c for c in self.standby_order if c in cut_set), None
            )
            if candidate is None:
                return None
            if self.cut_monitor is None:
                # Cut instant: mirror the crash path — the lease is
                # granted through this frame, detection lands on the
                # next heartbeat boundary.
                self.cut_monitor = HeartbeatMonitor(self.lease)
                self.cut_monitor.last_renewal_frame = frame
                self.cut_start_frame = frame
                return None
            self.cut_monitor.observe(frame, False)
            if not self.cut_monitor.lease_expired:
                return None
            self.cut_leader = candidate
            self.cut_epoch = self._bump()
            cost = self._takeover_cost_ms(candidate, sorted(cut_set))
            recovery = cost
            if self.cut_start_frame is not None:
                recovery += (
                    (frame - self.cut_start_frame) * self.frame_dt_s * 1e3
                )
            return FailoverTransition(
                kind="split_takeover",
                frame=frame,
                leader_id=candidate,
                cost_ms=cost,
                recovery_ms=recovery,
                replica_frame=(
                    None if self.replica is None
                    else self.replica.frame_index
                ),
                epoch=self.cut_epoch,
            )
        if self.cut_leader in cut_set:
            return None  # split still in effect, both sides steady
        if not self._heal_pending:
            # Heal frame: the standby stands down on hearing the primary
            # again, but the primary's own claim — sealed before it saw
            # the standby's higher epoch — goes out under the old epoch
            # and the cut side fences it. The reunite lands next frame.
            self._heal_pending = True
            return None
        standby = self.cut_leader
        cost = 0.0
        if self.replica is not None:
            channel = self.channels.get(standby)
            if channel is not None:
                cost = channel.up.transfer_ms(self.replica.payload_bytes())
        self._clear_partition()
        self.epoch = self._bump()
        return FailoverTransition(
            kind="reunite",
            frame=frame,
            leader_id=PRIMARY,
            cost_ms=cost,
            recovery_ms=None,
            replica_frame=(
                None if self.replica is None else self.replica.frame_index
            ),
            epoch=self.epoch,
        )

    def authorities(
        self, live: Sequence[int], cut: Sequence[int]
    ) -> Tuple[Authority, ...]:
        """The acting schedulers this frame, each over its reachable set.

        At most two: the primary over the cameras it can reach, and —
        during a split — the cut side's elected standby over the cut.
        Cut cameras with no elected leader yet are in nobody's reach
        (they fall back to stale decisions). A camera-led fleet (after a
        full scheduler crash) is a single authority over every live
        camera.
        """
        live_set = frozenset(live)
        if not self.primary_alive:
            if self.leader_camera is None:
                return ()
            return (
                Authority(self.leader_camera, self.epoch, live_set),
            )
        cut_set = frozenset(cut) & live_set
        if self.cut_leader is not None and self.cut_leader in cut_set:
            return (
                Authority(PRIMARY, self.epoch, live_set - cut_set),
                Authority(self.cut_leader, self.cut_epoch, cut_set),
            )
        # Healed (including the fencing frame, when the primary still
        # broadcasts its pre-split epoch) or leaderless cut side.
        return (Authority(PRIMARY, self.epoch, live_set - cut_set),)

    @property
    def reclaim_pending(self) -> bool:
        """True on the heal frame: the primary re-broadcasts fleet-wide
        right away — still under its pre-split epoch, so the cut side
        fences the claim and the reunite lands next frame."""
        return self._heal_pending

    def _bump(self) -> int:
        """The next epoch — frozen at the current one when fencing is off."""
        if not self.fencing:
            return self.epoch
        self._max_epoch += 1
        return self._max_epoch

    def _clear_partition(self) -> None:
        self.cut_leader = None
        self.cut_monitor = None
        self.cut_start_frame = None
        self._heal_pending = False

    # ------------------------------------------------------------------
    def _takeover(
        self, frame: int, live: Sequence[int], redetection: bool
    ) -> Optional[FailoverTransition]:
        previous = self.leader_camera
        standby = next(
            (c for c in self.standby_order if c in set(live) and c != previous),
            None,
        )
        if standby is None:
            self.leader_camera = None
            return None
        self.leader_camera = standby
        self.epoch = self._bump()
        cost = self._takeover_cost_ms(standby, live)
        recovery = cost
        if redetection and self.crash_frame is not None:
            recovery += (frame - self.crash_frame) * self.frame_dt_s * 1e3
        return FailoverTransition(
            kind="takeover",
            frame=frame,
            leader_id=standby,
            cost_ms=cost,
            recovery_ms=recovery,
            replica_frame=(
                None if self.replica is None else self.replica.frame_index
            ),
            epoch=self.epoch,
        )

    def _takeover_cost_ms(self, standby: int, live: Sequence[int]) -> float:
        """Restore the replica, then broadcast the leadership claim.

        The claim rides the same downlinks the scheduler uses (cameras
        listen in parallel, so the worst link bounds the cost); restoring
        costs the fixed deserialize time plus one central-stage pass over
        the replicated association state.
        """
        n_objects = 0 if self.replica is None else self.replica.n_global_objects
        restore = self.lease.takeover_restore_ms + self.overheads.central_stage_ms(
            n_objects, len(live)
        )
        claim = Heartbeat(frame_index=0, leader_id=standby)
        broadcast = max(
            (
                self.channels[cam].down.transfer_ms(claim.payload_bytes())
                for cam in sorted(live)
                if cam != standby and cam in self.channels
            ),
            default=0.0,
        )
        return restore + broadcast

    def _handback(self, frame: int) -> FailoverTransition:
        """The primary rejoined: sync state back and return leadership."""
        standby = self.leader_camera
        cost = 0.0
        if standby is not None and self.replica is not None:
            channel = self.channels.get(standby)
            if channel is not None:
                cost = channel.up.transfer_ms(self.replica.payload_bytes())
        recovery: Optional[float] = None
        if standby is None and self.crash_frame is not None:
            # The outage ended before any takeover: central duty was down
            # from the crash until right now.
            recovery = (frame - self.crash_frame) * self.frame_dt_s * 1e3
        self.primary_alive = True
        self.leader_camera = None
        self.crash_frame = None
        self.monitor = HeartbeatMonitor(self.lease)
        self.monitor.last_renewal_frame = frame
        self.epoch = self._bump()
        return FailoverTransition(
            kind="handback",
            frame=frame,
            leader_id=PRIMARY,
            cost_ms=cost,
            recovery_ms=recovery,
            replica_frame=(
                None if self.replica is None else self.replica.frame_index
            ),
            epoch=self.epoch,
        )
