"""The 1Hop-Protocol: reliable authenticated streaming of bits over one hop.

The 1Hop-Protocol turns the fallible 2Bit-Protocol into an exactly-once,
in-order bit stream between a sender and the honest devices in its
neighborhood.  Each application bit is sent as a pair ``(parity, data)``:

* the *parity* (control) bit alternates ``1, 0, 1, 0, ...`` starting at ``1``
  for the first data bit, letting receivers distinguish a retransmission of
  the current bit from the next bit in the sequence;
* the *data* bit is the actual payload.

Whenever a 2Bit exchange fails (because of interference, which by Theorem 1
requires the adversary to spend budget), the sender simply repeats the same
pair in its next broadcast interval.  The sender advances to the next bit only
after a successful exchange, and — by the termination property of the
2Bit-Protocol — a successful exchange implies every honest receiver accepted
the pair, so sender and receivers can never get out of sync (Theorem 2).

The classes below manage the per-slot lifecycle: the multi-hop layers call
``begin_slot`` at the start of a broadcast interval, drive the embedded 2Bit
state machine through the six phases, and call ``finish_slot`` at the end.
"""

from __future__ import annotations

from typing import Iterable, Optional

from .messages import Bits, int_from_bits, validate_bits
from .twobit import TwoBitOutcome, TwoBitReceiver, TwoBitSender

__all__ = ["parity_of_index", "OneHopSender", "OneHopReceiver"]


def parity_of_index(bit_index: int) -> int:
    """Parity (control) bit for the 1-based ``bit_index``-th data bit.

    The paper fixes the first parity value to ``1`` so that an idle channel
    (which reads as ``(0, 0)``) can never be mistaken for the first bit.
    """
    if bit_index < 1:
        raise ValueError("bit_index is 1-based and must be >= 1")
    return 1 if bit_index % 2 == 1 else 0


class OneHopSender:
    """Sender side of the 1Hop-Protocol.

    The sender maintains a queue of data bits.  Relay devices append to the
    queue as they commit to new bits (``extend``); the broadcast source seeds
    the queue with the whole message up front.

    Usage per broadcast interval::

        active = sender.begin_slot()      # False -> nothing to send this slot
        for phase in range(6):
            if active and sender.action(phase): broadcast(...)
            ... deliver observations via sender.observe(phase, busy) ...
        advanced = sender.finish_slot()   # True -> the current bit was delivered
    """

    def __init__(self, bits: Iterable[int] = ()) -> None:
        self._bits: list[int] = list(validate_bits(bits))
        self._sent_count = 0
        self._attempts = 0
        self._successful_slots = 0
        self._current: Optional[TwoBitSender] = None

    # -- queue management -----------------------------------------------------------
    def extend(self, bits: Iterable[int]) -> None:
        """Append newly committed data bits to the outgoing stream."""
        self._bits.extend(validate_bits(bits))

    def extend_encoded(self, bits: Bits) -> None:
        """Append a codec's output, which is already a tuple of 0/1 ints.

        :meth:`ControlCodec.encode <repro.core.messages.ControlCodec.encode>`
        builds its tuples from fixed-width bit fields and admits one only
        after its range checks, so walking it again bit by bit, as
        :meth:`extend` does for any other input, checks nothing new.
        """
        self._bits.extend(bits)

    @property
    def queued_bits(self) -> Bits:
        """All data bits ever queued (sent and pending)."""
        return tuple(self._bits)

    @property
    def sent_count(self) -> int:
        """Number of data bits already delivered to every honest neighbor."""
        return self._sent_count

    @property
    def pending_count(self) -> int:
        """Number of queued data bits not yet delivered."""
        return len(self._bits) - self._sent_count

    @property
    def has_pending(self) -> bool:
        return self.pending_count > 0

    @property
    def attempts(self) -> int:
        """Total number of 2Bit exchanges started (retransmissions included)."""
        return self._attempts

    @property
    def successful_slots(self) -> int:
        return self._successful_slots

    @property
    def current_pair(self) -> Optional[tuple[int, int]]:
        """The ``(parity, data)`` pair being transmitted this slot, if any."""
        if self._current is None:
            return None
        return (self._current.b1, self._current.b2)

    def state_signature(self) -> tuple:
        """Behaviour-relevant state for cohort re-merging (slot boundaries only).

        The queue and the delivered watermark fully determine every future
        action: the next pair is derived from them, and ``_current`` is always
        ``None`` between slots.  Attempt/success tallies are statistics — two
        senders that differ only there behave identically — so they are
        deliberately excluded, letting transiently diverged cohort members
        re-merge.
        """
        return (tuple(self._bits), self._sent_count)

    # -- SoA kernel accessors -----------------------------------------------------------
    def soa_next_pair(self) -> Optional[tuple[int, int]]:
        """``(parity, data)`` of the next pending bit, or ``None`` when none is pending.

        The SoA kernels drive the 2Bit exchange in mask algebra and never
        construct the per-slot :class:`TwoBitSender`; this one read stands
        for :attr:`has_pending` plus the pair :meth:`begin_slot` would
        build.  This accessor (like every ``soa_*`` seam) consumes no RNG
        and reads exactly the state the scalar slot machines would, which
        is what lets lossy/Friis runs interleave scalar-fallback
        occurrences with compiled ones: the generator is advanced only at
        the channel layer, identically on either path.
        """
        sent = self._sent_count
        bits = self._bits
        if sent < len(bits):
            return (parity_of_index(sent + 1), bits[sent])
        return None

    def soa_advance(self) -> None:
        """Mark the current bit delivered (SoA kernel success path).

        Bypasses ``begin_slot``/``finish_slot``, so the attempt/success
        tallies are not maintained on the SoA tier — they are statistics
        excluded from :meth:`state_signature` for exactly that reason.
        """
        self._sent_count += 1

    def clone(self) -> "OneHopSender":
        """Independent state-identical copy (cohort splits, possibly mid-slot)."""
        other = OneHopSender.__new__(OneHopSender)
        other._bits = list(self._bits)
        other._sent_count = self._sent_count
        other._attempts = self._attempts
        other._successful_slots = self._successful_slots
        other._current = None if self._current is None else self._current.clone()
        return other

    # -- slot lifecycle ----------------------------------------------------------------
    def begin_slot(self) -> bool:
        """Start a broadcast interval; returns whether there is a bit to send."""
        if self._current is not None:
            raise RuntimeError("begin_slot called twice without finish_slot")
        if not self.has_pending:
            return False
        index = self._sent_count + 1
        data = self._bits[self._sent_count]
        self._current = TwoBitSender(parity_of_index(index), data)
        self._attempts += 1
        return True

    def action(self, phase: int) -> bool:
        if self._current is None:
            return False
        return self._current.action(phase)

    def listens(self, phase: int) -> bool:
        if self._current is None:
            return False
        return self._current.listens(phase)

    def observe(self, phase: int, busy: bool) -> None:
        if self._current is not None:
            self._current.observe(phase, busy)

    def finish_slot(self) -> bool:
        """End the broadcast interval; returns whether the current bit advanced."""
        if self._current is None:
            return False
        outcome = self._current.outcome()
        self._current = None
        if outcome is TwoBitOutcome.SUCCESS:
            self._sent_count += 1
            self._successful_slots += 1
            return True
        return False

    def abort_slot(self) -> None:
        """Discard the in-flight exchange without advancing (used on interrupts)."""
        self._current = None


class OneHopReceiver:
    """Receiver side of the 1Hop-Protocol.

    A stream is either *bounded*, accepting at most ``expected_length`` data
    bits (NeighborWatchRB's message streams), or *framed*: open-ended and
    read ``frame_bits`` bits at a time (MultiPathRB's control channel).  A
    framed stream keeps only its accepted count and the bits of its current
    partial frame; its consumer empties each frame with :meth:`take_frame`
    as it completes.  The receiver tracks the alternating parity: a
    successful 2Bit exchange whose parity matches the *next expected* bit is
    accepted, anything else (a retransmission of the previous bit, or
    noise) is ignored, which is always safe.
    """

    # Class defaults, so that a bounded stream's construction sets neither.
    _frame_bits: Optional[int] = None
    #: Bits of the frames :meth:`take_frame` emptied.
    _taken = 0

    def __init__(
        self, expected_length: Optional[int] = None, *, frame_bits: Optional[int] = None
    ) -> None:
        if expected_length is None:
            if frame_bits is None or frame_bits < 1:
                raise ValueError("an open-ended stream is framed: frame_bits must be positive")
            self._frame_bits = frame_bits
        elif expected_length < 0:
            raise ValueError("expected_length must be non-negative")
        elif frame_bits is not None:
            raise ValueError("a stream is either bounded (expected_length) or framed (frame_bits)")
        self._expected_length = expected_length
        self._received: list[int] = []
        self._current: Optional[TwoBitReceiver] = None
        self._failed_slots = 0
        self._accepted_slots = 0
        self._ignored_slots = 0

    # -- state -------------------------------------------------------------------------
    @property
    def received_bits(self) -> Bits:
        """Data bits held, in order: all accepted bits, or a framed stream's partial frame."""
        return tuple(self._received)

    def peek_received(self) -> list:
        """The internal list behind :attr:`received_bits`, without copying.

        Hot-path accessor for per-slot consumers (NeighborWatchRB's commit
        rule scans every receiver after every slot); callers must treat the
        list as read-only.
        """
        return self._received

    @property
    def received_count(self) -> int:
        """Data bits accepted so far, those of emptied frames included."""
        return self._taken + len(self._received)

    @property
    def expected_length(self) -> Optional[int]:
        """Bound on the stream length (``None`` for a framed stream)."""
        return self._expected_length

    @property
    def frame_bits(self) -> Optional[int]:
        """Width of a framed stream's frames (``None`` for a bounded stream)."""
        return self._frame_bits

    @property
    def complete(self) -> bool:
        """Whether the expected number of bits has been received."""
        return self._expected_length is not None and len(self._received) >= self._expected_length

    @property
    def failed_slots(self) -> int:
        """Number of slots in which the exchange was vetoed/failed."""
        return self._failed_slots

    @property
    def accepted_slots(self) -> int:
        return self._accepted_slots

    @property
    def ignored_slots(self) -> int:
        """Slots that succeeded but carried a stale parity (retransmissions)."""
        return self._ignored_slots

    @property
    def expected_parity(self) -> int:
        """Parity value the next new data bit must carry."""
        return parity_of_index(self._taken + len(self._received) + 1)

    def take_frame(self) -> Optional[int]:
        """Empty a framed stream's completed frame, returned as an MSB-first integer.

        ``None`` while the current frame is partial.  The count of accepted
        bits (and with it the expected parity) is kept.
        """
        bits = self._received
        if len(bits) != self._frame_bits:
            return None
        frame = int_from_bits(bits)
        self._taken += len(bits)
        bits.clear()
        return frame

    def state_signature(self) -> tuple:
        """Behaviour-relevant state for cohort re-merging (slot boundaries only).

        The accepted count and the bits held determine the expected parity
        and the completion check; failure/ignore tallies are statistics and
        excluded (a member whose exchange failed and one that ignored a
        stale retransmission hold the same stream and behave identically).
        """
        return (self._taken, *self._received)

    # -- SoA kernel accessors -----------------------------------------------------------
    def soa_append(self, data: int) -> int:
        """Append an accepted data bit (SoA kernel accept path); returns the new length.

        The kernel performs the veto/parity/completion checks in mask algebra
        and bypasses the per-slot :class:`TwoBitReceiver` objects, so the
        failed/accepted/ignored tallies are not maintained on the SoA tier;
        the accepted stream — the behaviour-relevant state — is.
        """
        received = self._received
        received.append(data)
        return len(received)

    def soa_store_frames(self, frames: int, partial: list) -> None:
        """Bring a framed stream level with the SoA kernel's frame planes.

        ``frames`` more frames completed (and were handled) since the last
        store, and ``partial`` holds the bits of the current partial frame.
        """
        self._taken += frames * self._frame_bits
        self._received[:] = partial

    def clone(self) -> "OneHopReceiver":
        """Independent state-identical copy (cohort splits, possibly mid-slot)."""
        other = OneHopReceiver.__new__(OneHopReceiver)
        other._expected_length = self._expected_length
        other._frame_bits = self._frame_bits
        other._received = list(self._received)
        other._taken = self._taken
        other._current = None if self._current is None else self._current.clone()
        other._failed_slots = self._failed_slots
        other._accepted_slots = self._accepted_slots
        other._ignored_slots = self._ignored_slots
        return other

    # -- slot lifecycle -------------------------------------------------------------------
    def begin_slot(self) -> bool:
        """Start listening for a broadcast interval of the peer.

        Returns ``False`` when the stream is already complete (the receiver no
        longer needs to ack, and stale retransmissions are ignored anyway).
        """
        if self._current is not None:
            raise RuntimeError("begin_slot called twice without finish_slot")
        if self.complete:
            return False
        self._current = TwoBitReceiver()
        return True

    def action(self, phase: int) -> bool:
        if self._current is None:
            return False
        return self._current.action(phase)

    def listens(self, phase: int) -> bool:
        if self._current is None:
            return False
        return self._current.listens(phase)

    def observe(self, phase: int, busy: bool) -> None:
        if self._current is not None:
            self._current.observe(phase, busy)

    def finish_slot(self) -> Optional[int]:
        """End the broadcast interval.

        Returns the newly accepted data bit (0/1) when the exchange succeeded
        with the expected parity, and ``None`` otherwise.
        """
        if self._current is None:
            return None
        outcome = self._current.outcome()
        pair = self._current.result()
        self._current = None
        if outcome is not TwoBitOutcome.SUCCESS or pair is None:
            self._failed_slots += 1
            return None
        parity, data = pair
        if parity != self.expected_parity:
            self._ignored_slots += 1
            return None
        if self._expected_length is not None and len(self._received) >= self._expected_length:
            self._ignored_slots += 1
            return None
        self._received.append(data)
        self._accepted_slots += 1
        return data

    def abort_slot(self) -> None:
        """Discard the in-flight exchange (used on interrupts)."""
        self._current = None
