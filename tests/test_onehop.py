"""Unit tests for the 1Hop-Protocol (repro.core.onehop)."""

from __future__ import annotations

import pytest

from repro.core.onehop import OneHopReceiver, OneHopSender, parity_of_index
from repro.core.twobit import NUM_PHASES


def run_slot(sender: OneHopSender, receivers, *, adversary_phases=()):
    """Run one broadcast interval between a 1Hop sender and its receivers."""
    adversary_phases = set(adversary_phases)
    sender_active = sender.begin_slot()
    receiver_active = [r.begin_slot() for r in receivers]
    participants = [("s", sender, sender_active)] + [
        (f"r{i}", r, active) for i, (r, active) in enumerate(zip(receivers, receiver_active))
    ]
    for phase in range(NUM_PHASES):
        transmitted = set()
        for name, device, active in participants:
            if active and device.action(phase):
                transmitted.add(name)
        adversary_on = phase in adversary_phases
        for name, device, active in participants:
            if not active or name in transmitted:
                continue
            busy = adversary_on or any(t != name for t in transmitted)
            device.observe(phase, busy)
    advanced = sender.finish_slot()
    accepted = [r.finish_slot() for r in receivers]
    return advanced, accepted


class TestParity:
    def test_first_parity_is_one(self):
        assert parity_of_index(1) == 1

    def test_alternation(self):
        assert [parity_of_index(i) for i in range(1, 7)] == [1, 0, 1, 0, 1, 0]

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            parity_of_index(0)


class TestOneHopSenderQueue:
    def test_initial_state(self):
        sender = OneHopSender((1, 0, 1))
        assert sender.queued_bits == (1, 0, 1)
        assert sender.sent_count == 0
        assert sender.pending_count == 3
        assert sender.has_pending

    def test_extend(self):
        sender = OneHopSender()
        assert not sender.has_pending
        sender.extend((1, 1))
        assert sender.pending_count == 2

    def test_extend_validates(self):
        with pytest.raises(ValueError):
            OneHopSender((0, 2))

    def test_begin_slot_without_pending(self):
        sender = OneHopSender()
        assert sender.begin_slot() is False
        assert sender.current_pair is None

    def test_begin_slot_twice_raises(self):
        sender = OneHopSender((1,))
        sender.begin_slot()
        with pytest.raises(RuntimeError):
            sender.begin_slot()

    def test_current_pair_uses_parity(self):
        sender = OneHopSender((0, 1))
        sender.begin_slot()
        assert sender.current_pair == (1, 0)  # parity 1, data 0
        sender.abort_slot()

    def test_abort_slot_does_not_advance(self):
        sender = OneHopSender((1,))
        sender.begin_slot()
        sender.abort_slot()
        assert sender.sent_count == 0
        assert sender.finish_slot() is False


class TestOneHopReceiverState:
    def test_expected_parity_progression(self):
        receiver = OneHopReceiver(expected_length=4)
        assert receiver.expected_parity == 1

    def test_complete_flag(self):
        receiver = OneHopReceiver(expected_length=0)
        assert receiver.complete
        assert receiver.begin_slot() is False

    def test_open_ended_receiver_never_complete(self):
        receiver = OneHopReceiver(frame_bits=3)
        assert not receiver.complete
        assert receiver.expected_length is None

    def test_stream_is_bounded_or_framed(self):
        for kwargs in ({}, {"expected_length": None}, {"expected_length": 2, "frame_bits": 3}):
            with pytest.raises(ValueError):
                OneHopReceiver(**kwargs)
        with pytest.raises(ValueError):
            OneHopReceiver(frame_bits=0)

    def test_negative_length_rejected(self):
        with pytest.raises(ValueError):
            OneHopReceiver(expected_length=-1)

    def test_begin_twice_raises(self):
        receiver = OneHopReceiver(expected_length=2)
        receiver.begin_slot()
        with pytest.raises(RuntimeError):
            receiver.begin_slot()

    def test_take_frame(self):
        receiver = OneHopReceiver(frame_bits=3)
        receiver._received.extend([1, 0])  # direct manipulation for the helper test
        assert receiver.take_frame() is None
        receiver._received.append(1)
        assert receiver.take_frame() == 0b101
        assert receiver.received_bits == ()
        assert receiver.received_count == 3
        assert receiver.expected_parity == 0
        assert receiver.take_frame() is None


class TestStreamTransfer:
    def test_full_message_transfer(self):
        message = (1, 0, 1, 1, 0)
        sender = OneHopSender(message)
        receivers = [OneHopReceiver(expected_length=5) for _ in range(3)]
        for _ in range(len(message)):
            advanced, _ = run_slot(sender, receivers)
            assert advanced
        assert sender.sent_count == 5
        for r in receivers:
            assert r.received_bits == message
            assert r.complete

    def test_transfer_takes_one_slot_per_bit_without_interference(self):
        message = (0, 0, 1)
        sender = OneHopSender(message)
        receiver = OneHopReceiver(expected_length=3)
        slots = 0
        while not receiver.complete:
            run_slot(sender, [receiver])
            slots += 1
            assert slots <= 3
        assert slots == 3

    def test_interference_forces_retransmission(self):
        message = (1, 0)
        sender = OneHopSender(message)
        receiver = OneHopReceiver(expected_length=2)
        # First slot is jammed during the veto round: no progress.
        advanced, accepted = run_slot(sender, [receiver], adversary_phases={4})
        assert not advanced
        assert accepted == [None]
        assert receiver.failed_slots == 1
        # Retransmissions eventually deliver the same bits, in order.
        for _ in range(2):
            run_slot(sender, [receiver])
        assert receiver.received_bits == message

    def test_receiver_ignores_repetition_after_local_success(self):
        """A receiver that got the bit while the sender failed does not double-count it."""
        message = (1, 1)
        sender = OneHopSender(message)
        receiver = OneHopReceiver(expected_length=2)
        # Jam only the final round (phase 5): the receiver accepts, the sender retries.
        advanced, accepted = run_slot(sender, [receiver], adversary_phases={5})
        assert not advanced
        assert accepted == [1]
        assert receiver.received_count == 1
        # The sender repeats bit 1; the receiver must ignore the stale parity.
        advanced, accepted = run_slot(sender, [receiver])
        assert advanced
        assert accepted == [None]
        assert receiver.received_count == 1
        assert receiver.ignored_slots == 1
        # Next slot carries bit 2.
        run_slot(sender, [receiver])
        assert receiver.received_bits == message

    def test_silent_slot_is_not_mistaken_for_first_bit(self):
        """Silence cannot start a stream because the first parity is 1."""
        receiver = OneHopReceiver(expected_length=3)
        idle_sender = OneHopSender()  # nothing to send
        _, accepted = run_slot(idle_sender, [receiver])
        assert accepted == [None]
        assert receiver.received_count == 0

    def test_relay_can_extend_mid_stream(self):
        sender = OneHopSender((1,))
        receiver = OneHopReceiver(expected_length=3)
        run_slot(sender, [receiver])
        assert receiver.received_bits == (1,)
        assert not sender.has_pending
        sender.extend((0, 1))
        run_slot(sender, [receiver])
        run_slot(sender, [receiver])
        assert receiver.received_bits == (1, 0, 1)

    def test_attempt_counting(self):
        sender = OneHopSender((1,))
        receiver = OneHopReceiver(expected_length=1)
        run_slot(sender, [receiver], adversary_phases={4})
        run_slot(sender, [receiver])
        assert sender.attempts == 2
        assert sender.successful_slots == 1

    def test_open_ended_stream_accepts_many_bits(self):
        # A framed stream holds its partial frame only; each frame is
        # emptied as it completes, and the count keeps the parity going.
        bits = (1, 0, 1, 1, 0, 0, 1, 0)
        sender = OneHopSender(bits)
        receiver = OneHopReceiver(frame_bits=3)
        frames = []
        for _ in range(len(bits)):
            run_slot(sender, [receiver])
            frame = receiver.take_frame()
            if frame is not None:
                frames.append(frame)
            assert len(receiver.received_bits) < 3
        assert frames == [0b101, 0b100]
        assert receiver.received_bits == (1, 0)
        assert receiver.received_count == len(bits)
        assert not sender.has_pending

    def test_extra_bits_beyond_expected_length_ignored(self):
        sender = OneHopSender((1, 0, 1))
        receiver = OneHopReceiver(expected_length=2)
        for _ in range(3):
            run_slot(sender, [receiver])
        assert receiver.received_bits == (1, 0)
