"""The hardened wire protocol: envelopes, checksums, channel guards."""

import pickle

import pytest

from repro.net.envelope import (
    ADMIT_OK,
    ADMIT_REORDERED,
    DEFAULT_WINDOW,
    DROP_CORRUPT,
    DROP_DUPLICATE,
    DROP_STALE_EPOCH,
    DROP_WINDOW_EXCEEDED,
    ChannelGuard,
    Envelope,
)
from repro.net.link import TransferOutcome


def seal(seq=0, epoch=0, channel="assign:0", payload="1,2,3"):
    return Envelope.seal(channel, seq, epoch, payload)


class TestEnvelope:
    def test_seal_verifies(self):
        env = seal()
        assert env.intact
        assert env.checksum == Envelope.seal(
            env.channel, env.seq, env.epoch, env.payload
        ).checksum

    def test_any_field_damage_fails_verification(self):
        env = seal(seq=3, epoch=1, payload="7,8")
        from dataclasses import replace
        assert not replace(env, payload="7,9").intact
        assert not replace(env, seq=4).intact
        assert not replace(env, epoch=2).intact
        assert not replace(env, channel="assign:1").intact

    def test_corrupted_copy_never_verifies(self):
        assert not seal().corrupted().intact

    def test_negative_header_fields_rejected(self):
        with pytest.raises(ValueError):
            Envelope.seal("c", -1, 0, "")
        with pytest.raises(ValueError):
            Envelope.seal("c", 0, -1, "")

    def test_checksum_is_stable_across_processes(self):
        # CRC-32 of a fixed blob: pinned so a checksum change (which
        # would silently invalidate in-flight golden traces) is loud.
        assert seal(seq=5, epoch=2, payload="a").checksum == 0x0EF6E011


class TestChannelGuard:
    def test_in_order_admission(self):
        guard = ChannelGuard()
        for i in range(5):
            verdict = guard.admit(seal(seq=i))
            assert verdict.accepted and verdict.reason == ADMIT_OK
        assert guard.admitted == 5

    def test_gap_tolerated_and_reported(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=0))
        verdict = guard.admit(seal(seq=4))
        assert verdict.accepted and verdict.gap == 3

    def test_corrupt_dropped_before_everything_else(self):
        guard = ChannelGuard()
        verdict = guard.admit(seal(seq=0).corrupted())
        assert not verdict.accepted and verdict.reason == DROP_CORRUPT
        assert guard.corrupt == 1 and guard.admitted == 0

    def test_stale_epoch_fenced(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=0, epoch=2))
        verdict = guard.admit(seal(seq=1, epoch=1))
        assert not verdict.accepted and verdict.reason == DROP_STALE_EPOCH
        assert guard.epoch == 2

    def test_higher_epoch_resets_sequence_space(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=40, epoch=0))
        # New leadership term numbers its own sends from 0 again.
        verdict = guard.admit(seal(seq=0, epoch=1))
        assert verdict.accepted and verdict.reason == ADMIT_OK
        assert guard.epoch == 1 and guard.next_seq == 1

    def test_duplicate_dropped_within_window(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=3))
        verdict = guard.admit(seal(seq=3))
        assert not verdict.accepted and verdict.reason == DROP_DUPLICATE
        assert guard.duplicates == 1

    def test_reordered_unseen_admitted_once(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=0))
        guard.admit(seal(seq=5))
        verdict = guard.admit(seal(seq=3))
        assert verdict.accepted and verdict.reason == ADMIT_REORDERED
        # ... and only once: the replay is now a duplicate.
        replay = guard.admit(seal(seq=3))
        assert not replay.accepted and replay.reason == DROP_DUPLICATE

    def test_window_exceeded_dropped_unseen(self):
        guard = ChannelGuard(window=4)
        guard.admit(seal(seq=10))
        verdict = guard.admit(seal(seq=2))
        assert not verdict.accepted
        assert verdict.reason == DROP_WINDOW_EXCEEDED
        assert guard.window_exceeded == 1

    def test_hold_reordered_books_the_sequence_number(self):
        guard = ChannelGuard()
        held = guard.hold_reordered(seal(seq=2))
        assert not held.accepted and held.reason == ADMIT_REORDERED
        assert guard.reordered == 1
        # The held message's seq is spent: a wire replay is a duplicate.
        replay = guard.admit(seal(seq=2))
        assert not replay.accepted and replay.reason == DROP_DUPLICATE

    def test_hold_reordered_still_fences_and_checksums(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=0, epoch=3))
        assert guard.hold_reordered(seal(seq=1, epoch=1)).reason == (
            DROP_STALE_EPOCH
        )
        assert guard.hold_reordered(seal(seq=1).corrupted()).reason == (
            DROP_CORRUPT
        )

    def test_replay_corrupt_duplicate_delivery(self):
        guard = ChannelGuard()
        outcome = TransferOutcome(
            delivered=True, elapsed_ms=1.0, attempts=3, corrupt_attempts=2,
            duplicated=True,
        )
        verdict = guard.replay(seal(seq=4), outcome)
        assert verdict.accepted and verdict.reason == ADMIT_OK
        assert (guard.corrupt, guard.admitted, guard.duplicates) == (2, 1, 1)

    def test_replay_holds_a_reordered_delivery(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=0, epoch=3))
        outcome = TransferOutcome(
            delivered=True, elapsed_ms=1.0, attempts=1, reordered=True,
            duplicated=True,
        )
        held = guard.replay(seal(seq=1, epoch=3), outcome)
        assert not held.accepted and held.reason == ADMIT_REORDERED
        # A held delivery is not admitted again as a duplicate ...
        assert (guard.reordered, guard.duplicates) == (1, 0)
        # ... and a stale one keeps the guard's fencing verdict.
        stale = guard.replay(seal(seq=2, epoch=1), outcome)
        assert stale.reason == DROP_STALE_EPOCH

    def test_replay_of_a_clean_delivery_is_one_admit(self):
        guard = ChannelGuard()
        assert guard.replay(seal(seq=0), None).reason == ADMIT_OK
        assert guard.admitted == 1

    def test_window_trim_bounds_seen_set(self):
        guard = ChannelGuard(window=8)
        for i in range(100):
            guard.admit(seal(seq=i))
        assert len(guard._seen) <= guard.window
        assert guard.next_seq == 100
        assert guard.window < DEFAULT_WINDOW

    def test_invalid_window_rejected(self):
        with pytest.raises(ValueError):
            ChannelGuard(window=0)

    def test_guard_pickles_for_checkpoints(self):
        guard = ChannelGuard()
        guard.admit(seal(seq=0))
        guard.admit(seal(seq=0))
        clone = pickle.loads(pickle.dumps(guard))
        assert clone.duplicates == 1 and clone.next_seq == 1
