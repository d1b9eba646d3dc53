"""Point-to-point network links with bandwidth and propagation delay.

Models the paper's testbed links: wired Ethernet with 100 Mbps downlink /
20 Mbps uplink between each camera and the central scheduler. Transfer
latency = propagation + size / bandwidth (+ optional jitter), which is all
the scheduling framework is sensitive to.

On top of the raw links, the module models the *unreliable* exchange the
fault-injection layer needs: per-message loss (:class:`LinkFault`) with
timeout + bounded linear-backoff retry (:class:`RetryPolicy`). A failed
attempt costs the timeout plus backoff and is tallied in the link's
``messages_dropped``/``bytes_dropped`` counters, kept separate from the
delivered-traffic ``messages_sent``/``bytes_sent`` counters.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.obs.trace import get_tracer


@dataclass(frozen=True)
class LinkSpec:
    """One direction of a link."""

    bandwidth_mbps: float
    propagation_ms: float = 1.0
    jitter_ms_std: float = 0.0

    def __post_init__(self) -> None:
        if self.bandwidth_mbps <= 0:
            raise ValueError("bandwidth_mbps must be positive")
        if self.propagation_ms < 0:
            raise ValueError("propagation_ms must be non-negative")
        if self.jitter_ms_std < 0:
            raise ValueError("jitter_ms_std must be non-negative")


#: Paper testbed: 100 Mbps downlink (scheduler -> camera).
TESTBED_DOWNLINK = LinkSpec(bandwidth_mbps=100.0, propagation_ms=1.0)
#: Paper testbed: 20 Mbps uplink (camera -> scheduler).
TESTBED_UPLINK = LinkSpec(bandwidth_mbps=20.0, propagation_ms=1.0)


@dataclass(frozen=True)
class RetryPolicy:
    """Timeout + bounded retry with linear backoff, all modeled in ms."""

    max_attempts: int = 3
    timeout_ms: float = 60.0
    backoff_ms: float = 20.0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if self.timeout_ms < 0:
            raise ValueError("timeout_ms must be non-negative")
        if self.backoff_ms < 0:
            raise ValueError("backoff_ms must be non-negative")

    def penalty_ms(self, attempt_index: int) -> float:
        """Wall-clock cost of failed attempt ``attempt_index`` (0-based)."""
        return self.timeout_ms + self.backoff_ms * attempt_index


DEFAULT_RETRY = RetryPolicy()


@dataclass(frozen=True)
class LinkFault:
    """Fault state of one channel at one instant.

    Beyond loss and delay, the Byzantine wire faults: ``corrupt_prob``
    damages an attempt in flight (the receiver's checksum rejects it, so
    it costs a retry like a loss), ``duplicate_prob`` delivers a second
    copy of the message (the receiver guard must dedupe it), and
    ``reorder_prob`` delivers the message out of order (the receiver
    guard holds it in the reorder window instead of applying it).
    """

    loss_prob: float = 0.0
    extra_delay_ms: float = 0.0
    corrupt_prob: float = 0.0
    duplicate_prob: float = 0.0
    reorder_prob: float = 0.0

    def __post_init__(self) -> None:
        for name in ("loss_prob", "corrupt_prob", "duplicate_prob",
                     "reorder_prob"):
            if not 0.0 <= getattr(self, name) <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.extra_delay_ms < 0:
            raise ValueError("extra_delay_ms must be non-negative")

    @property
    def is_clean(self) -> bool:
        return (
            self.loss_prob == 0.0
            and self.extra_delay_ms == 0.0
            and self.corrupt_prob == 0.0
            and self.duplicate_prob == 0.0
            and self.reorder_prob == 0.0
        )


@dataclass(frozen=True)
class TransferOutcome:
    """Result of one (possibly retried) message transfer."""

    delivered: bool
    elapsed_ms: float
    attempts: int
    #: Attempts discarded by the receiver's checksum (wire corruption);
    #: they count toward ``dropped`` like losses, in their own counter.
    corrupt_attempts: int = 0
    #: The wire delivered a second copy of the final message.
    duplicated: bool = False
    #: The wire delivered the final message out of order.
    reordered: bool = False

    @property
    def dropped(self) -> int:
        """Number of lost attempts (retries if delivered, all if not)."""
        return self.attempts - 1 if self.delivered else self.attempts


class Link:
    """A unidirectional link that computes transfer latencies.

    A link whose spec draws jitter must be given an explicit ``rng``:
    a silent seed-0 fallback would share one stream across every link
    built without a seed, coupling their jitter draws between runs.
    """

    def __init__(
        self, spec: LinkSpec, rng: Optional[np.random.Generator] = None
    ) -> None:
        if spec.jitter_ms_std > 0 and rng is None:
            raise ValueError(
                "a jittered link (jitter_ms_std > 0) requires an explicit "
                "rng seeded from the run config"
            )
        self.spec = spec
        self._rng = rng
        self.bytes_dropped = 0
        self.messages_dropped = 0
        self.messages_corrupted = 0
        #: Transfers that exhausted every retry (hard failures), kept
        #: separate from per-attempt drops so recovered-after-retry and
        #: gave-up-entirely are distinguishable in the fault summary.
        self.giveups = 0

    def transfer_ms(self, payload_bytes: int) -> float:
        """Latency to move ``payload_bytes`` across the link, in ms."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        serialization = payload_bytes * 8.0 / (self.spec.bandwidth_mbps * 1e6) * 1e3
        if self.spec.jitter_ms_std > 0:
            assert self._rng is not None  # guaranteed by __init__
            jitter = abs(self._rng.normal(0.0, self.spec.jitter_ms_std))
        else:
            jitter = 0.0
        return self.spec.propagation_ms + serialization + jitter

    def record_drop(self, payload_bytes: int) -> None:
        """Account one lost message."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.bytes_dropped += payload_bytes
        self.messages_dropped += 1

    def record_corrupt(self, payload_bytes: int) -> None:
        """Account one message the receiver's checksum rejected."""
        if payload_bytes < 0:
            raise ValueError("payload_bytes must be non-negative")
        self.messages_corrupted += 1

    def reliable_transfer(
        self,
        payload_bytes: int,
        fault: LinkFault,
        policy: RetryPolicy,
        rng: np.random.Generator,
    ) -> TransferOutcome:
        """Send with fault injection, timeout and bounded retry.

        Each attempt is lost with ``fault.loss_prob`` and corrupted in
        flight with ``fault.corrupt_prob`` (drawn from ``rng`` in that
        fixed order, and only when the probability is nonzero — so a
        fault mix without a given kind consumes exactly the draws it did
        before the kind existed). A lost or corrupted attempt costs
        ``policy.penalty_ms`` — the receiver's checksum rejects a
        corrupt message, so the sender times out the same way. A
        delivered attempt costs the normal transfer latency plus
        ``fault.extra_delay_ms``, and may additionally be flagged
        duplicated / reordered for the receiver guard to handle.
        Exhausting every attempt books one ``giveups``.
        """
        elapsed = 0.0
        corrupt_attempts = 0
        for attempt in range(policy.max_attempts):
            if fault.loss_prob > 0.0 and rng.random() < fault.loss_prob:
                self.record_drop(payload_bytes)
                elapsed += policy.penalty_ms(attempt)
                continue
            if fault.corrupt_prob > 0.0 and rng.random() < fault.corrupt_prob:
                self.record_corrupt(payload_bytes)
                corrupt_attempts += 1
                elapsed += policy.penalty_ms(attempt)
                continue
            elapsed += self.transfer_ms(payload_bytes) + fault.extra_delay_ms
            duplicated = (
                fault.duplicate_prob > 0.0
                and rng.random() < fault.duplicate_prob
            )
            reordered = (
                fault.reorder_prob > 0.0
                and rng.random() < fault.reorder_prob
            )
            return TransferOutcome(
                delivered=True,
                elapsed_ms=elapsed,
                attempts=attempt + 1,
                corrupt_attempts=corrupt_attempts,
                duplicated=duplicated,
                reordered=reordered,
            )
        self.giveups += 1
        return TransferOutcome(
            delivered=False,
            elapsed_ms=elapsed,
            attempts=policy.max_attempts,
            corrupt_attempts=corrupt_attempts,
        )


class DuplexChannel:
    """Camera <-> scheduler channel with asymmetric up/down links.

    Construction requires an explicit ``seed`` or ``rng``: the two
    directions get *distinct* jitter streams derived from it, and a
    third derived stream drives fault (loss) draws — so two channels
    seeded from different camera ids never share randomness, and fault
    draws never perturb the jitter sequence.
    """

    def __init__(
        self,
        uplink: LinkSpec = TESTBED_UPLINK,
        downlink: LinkSpec = TESTBED_DOWNLINK,
        rng: Optional[np.random.Generator] = None,
        seed: Optional[int] = None,
    ) -> None:
        if rng is None:
            if seed is None:
                raise ValueError(
                    "DuplexChannel requires an explicit rng or seed "
                    "(derive it from the run config) — a silent seed-0 "
                    "fallback would alias every unseeded channel's "
                    "jitter/loss streams"
                )
            rng = np.random.default_rng(seed)
        self.up = Link(uplink, _derive_rng(rng))
        self.down = Link(downlink, _derive_rng(rng))
        self._fault_rng = _derive_rng(rng)

    def round_trip_ms(self, up_bytes: int, down_bytes: int) -> float:
        """Upload + download latency for one request/response exchange."""
        with get_tracer().span(
            "net.round_trip", up_bytes=up_bytes, down_bytes=down_bytes
        ):
            return self.up.transfer_ms(up_bytes) + self.down.transfer_ms(
                down_bytes
            )

    def up_transfer(
        self,
        up_bytes: int,
        fault: LinkFault,
        policy: RetryPolicy = DEFAULT_RETRY,
    ) -> TransferOutcome:
        """Reliable camera -> scheduler transfer under ``fault``."""
        return self.up.reliable_transfer(
            up_bytes, fault, policy, self._fault_rng
        )

    def down_transfer(
        self,
        down_bytes: int,
        fault: LinkFault,
        policy: RetryPolicy = DEFAULT_RETRY,
    ) -> TransferOutcome:
        """Reliable scheduler -> camera transfer under ``fault``."""
        return self.down.reliable_transfer(
            down_bytes, fault, policy, self._fault_rng
        )

    @property
    def messages_dropped(self) -> int:
        return self.up.messages_dropped + self.down.messages_dropped

    @property
    def bytes_dropped(self) -> int:
        return self.up.bytes_dropped + self.down.bytes_dropped

    @property
    def messages_corrupted(self) -> int:
        return self.up.messages_corrupted + self.down.messages_corrupted

    @property
    def giveups(self) -> int:
        return self.up.giveups + self.down.giveups


def _derive_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent child generator, deterministic in the parent state."""
    return np.random.default_rng(int(rng.integers(0, 2**63 - 1)))
