"""Hardened wire protocol: epoch/sequence envelopes and receiver guards.

Every control-plane message (detection report upload, assignment
download) can be wrapped in an :class:`Envelope` carrying three pieces
of metadata the raw :mod:`repro.net.messages` dataclasses lack:

* **epoch** — the leadership term of the issuing scheduler. Epochs only
  move forward; a receiver that has applied an assignment from epoch
  ``e`` *fences* (drops) anything from an epoch ``< e``, which is what
  makes a healed split-brain safe: the deposed authority's in-flight
  messages bounce off every camera.
* **seq** — the per-channel sequence number. The control plane is
  frame-quantized, so the frame index *is* the channel sequence number:
  it is strictly increasing per (channel, epoch), which gives replay
  detection and a bounded reorder window for free.
* **checksum** — a deterministic CRC-32 over the canonical payload
  encoding plus the header fields. A corrupt message never verifies, so
  receivers discard it instead of applying garbage.

The receiver side is :class:`ChannelGuard`: a sliding-window admission
filter that classifies each envelope as ok / corrupt / stale-epoch /
duplicate / reordered / window-exceeded and keeps per-reason counters
the runtime exports as ``wire_*`` metrics. Everything here is pure
deterministic state — no RNG, no clocks — so guarding a clean channel
changes nothing about a run.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Optional, Set

if TYPE_CHECKING:
    from repro.net.link import TransferOutcome

#: Admission verdicts a :class:`ChannelGuard` can return.
ADMIT_OK = "ok"
ADMIT_REORDERED = "reordered"
DROP_CORRUPT = "corrupt"
DROP_STALE_EPOCH = "stale_epoch"
DROP_DUPLICATE = "duplicate"
DROP_WINDOW_EXCEEDED = "window_exceeded"

#: Default reorder window, in sequence numbers (frames): a message older
#: than this many frames behind the channel head is dropped unseen.
DEFAULT_WINDOW = 16


def _checksum(channel: str, seq: int, epoch: int, payload: str) -> int:
    """Deterministic CRC-32 over the canonical wire encoding."""
    blob = f"{channel}|{seq}|{epoch}|{payload}".encode("utf-8")
    return zlib.crc32(blob) & 0xFFFFFFFF


@dataclass(frozen=True)
class Envelope:
    """One sealed control-plane message.

    ``payload`` is the canonical (deterministic) string encoding of the
    carried message; the checksum covers it together with the header, so
    any bit damage — header or body — fails verification. The envelope
    is modeled as metadata-only on the wire: the 64-byte header budget
    the message dataclasses already charge covers it, keeping modeled
    transfer costs (and every golden trace) unchanged.
    """

    channel: str
    seq: int
    epoch: int
    payload: str
    checksum: int

    def __post_init__(self) -> None:
        if self.seq < 0:
            raise ValueError("seq must be non-negative")
        if self.epoch < 0:
            raise ValueError("epoch must be non-negative")

    @classmethod
    def seal(cls, channel: str, seq: int, epoch: int, payload: str) -> "Envelope":
        """Build an envelope with a freshly computed checksum."""
        return cls(
            channel=channel,
            seq=seq,
            epoch=epoch,
            payload=payload,
            checksum=_checksum(channel, seq, epoch, payload),
        )

    @property
    def intact(self) -> bool:
        """Does the checksum still match the header + payload?"""
        return self.checksum == _checksum(
            self.channel, self.seq, self.epoch, self.payload
        )

    def corrupted(self) -> "Envelope":
        """A copy with wire damage: the payload mutated, checksum stale."""
        return replace(self, payload="\x00" + self.payload)


@dataclass(frozen=True)
class Admission:
    """The guard's verdict on one envelope."""

    accepted: bool
    reason: str
    #: Sequence numbers skipped ahead of this one (lost messages create
    #: gaps; the guard tolerates them rather than stalling the channel).
    gap: int = 0


class ChannelGuard:
    """Sliding-window admission filter for one receive channel.

    Admission rules, in order:

    1. A non-verifying envelope is dropped (``corrupt``).
    2. An epoch below the guard's current epoch is fenced
       (``stale_epoch``) — the sender lost leadership.
    3. A higher epoch advances the guard and resets the sequence window
       (each leadership term numbers its own sends).
    4. ``seq >= next``: admitted (``ok``), tolerating any gap — a lost
       message must never deadlock the channel.
    5. ``seq`` within the reorder window: admitted once (``reordered``)
       if unseen, dropped as ``duplicate`` if already admitted.
    6. ``seq`` older than the window: dropped (``window_exceeded``).

    The guard is exactly-once per (epoch, seq) within the window, and
    pure state — safe to pickle into run checkpoints.
    """

    def __init__(self, window: int = DEFAULT_WINDOW) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self.window = window
        self.epoch = 0
        self.next_seq = 0
        self._seen: Set[int] = set()
        self.admitted = 0
        self.corrupt = 0
        self.duplicates = 0
        self.reordered = 0
        self.window_exceeded = 0

    def admit(self, env: Envelope) -> Admission:
        """Classify one envelope and advance the window state."""
        if not env.intact:
            self.corrupt += 1
            return Admission(False, DROP_CORRUPT)
        if env.epoch < self.epoch:
            return Admission(False, DROP_STALE_EPOCH)
        if env.epoch > self.epoch:
            self.epoch = env.epoch
            self.next_seq = 0
            self._seen.clear()
        if env.seq >= self.next_seq:
            gap = env.seq - self.next_seq
            self._seen.add(env.seq)
            self.next_seq = env.seq + 1
            self._trim()
            self.admitted += 1
            return Admission(True, ADMIT_OK, gap=gap)
        if env.seq < self.next_seq - self.window:
            self.window_exceeded += 1
            return Admission(False, DROP_WINDOW_EXCEEDED)
        if env.seq in self._seen:
            self.duplicates += 1
            return Admission(False, DROP_DUPLICATE)
        self._seen.add(env.seq)
        self.admitted += 1
        self.reordered += 1
        return Admission(True, ADMIT_REORDERED)

    def hold_reordered(self, env: Envelope) -> Admission:
        """Account an envelope delivered out of order by the wire itself.

        In the frame-quantized runtime a reordered control message
        arrives after the decision it carries is already superseded, so
        the guard books the sequence number (a later replay of it is a
        duplicate) and reports it as held — the caller falls back to its
        stale decision instead of applying an out-of-date one.
        """
        if not env.intact:
            self.corrupt += 1
            return Admission(False, DROP_CORRUPT)
        if env.epoch < self.epoch:
            return Admission(False, DROP_STALE_EPOCH)
        if env.epoch > self.epoch:
            self.epoch = env.epoch
            self.next_seq = 0
            self._seen.clear()
        if env.seq >= self.next_seq:
            self._seen.add(env.seq)
            self.next_seq = env.seq + 1
            self._trim()
        self.reordered += 1
        return Admission(False, ADMIT_REORDERED)

    def replay(
        self, env: Envelope, outcome: Optional[TransferOutcome]
    ) -> Admission:
        """Receive ``env`` as the wire delivered it, per ``outcome``.

        Each corrupt attempt bounces off the checksum first. A reordered
        delivery is then held (:meth:`hold_reordered`); otherwise the
        envelope is admitted, and a duplicated final copy is admitted
        again, which the guard drops. Returns the verdict on the final
        copy. ``outcome=None`` is a clean delivery.
        """
        if outcome is None:
            return self.admit(env)
        for _ in range(outcome.corrupt_attempts):
            self.admit(env.corrupted())
        if outcome.reordered:
            return self.hold_reordered(env)
        admission = self.admit(env)
        if outcome.duplicated:
            self.admit(env)
        return admission

    def _trim(self) -> None:
        """Forget sequence numbers that fell out of the reorder window."""
        floor = self.next_seq - self.window
        if floor > 0:
            self._seen = {s for s in self._seen if s >= floor}
