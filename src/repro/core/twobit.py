"""The 2Bit-Protocol: authenticated transmission of two bits over one hop.

The 2Bit-Protocol runs inside a single six-round broadcast interval of the
TDMA schedule.  The sender encodes each bit by broadcasting (``1``) or staying
silent (``0``); receivers acknowledge perceived activity; and two veto rounds
let either side abort the exchange whenever the acknowledgements do not match
what was sent.  The crucial asymmetry is that Byzantine devices can *add*
energy to the channel (spoofing, jamming) but can never *remove* it — silence
cannot be forged — so any interference is detected and converts a potentially
corrupted delivery into a clean failure (Theorem 1 of the paper).

Round layout (phases are 0-based within the slot)::

    phase 0 (R1): sender broadcasts iff b1 == 1
    phase 1 (R2): receivers that heard activity in R1 broadcast an ack
    phase 2 (R3): sender broadcasts iff b2 == 1
    phase 3 (R4): receivers that heard activity in R3 broadcast an ack
    phase 4 (R5): sender broadcasts a veto iff the acks contradict (b1, b2)
    phase 5 (R6): receivers that heard activity in R5 broadcast a veto

Outcomes: a receiver returns *success* (with its bit estimates) iff it heard
nothing in R5; the sender returns *success* iff it heard nothing in R6.

The classes below are pure state machines (no simulator dependency): they are
driven with ``action(phase) -> bool`` (should I broadcast?) and
``observe(phase, busy)`` calls and can therefore be unit- and property-tested
exhaustively, then reused verbatim by the multi-hop layers.
"""

from __future__ import annotations

import enum
from typing import Optional

__all__ = [
    "NUM_PHASES",
    "TwoBitOutcome",
    "TwoBitSender",
    "TwoBitReceiver",
    "TwoBitBlocker",
    "soa_veto_mask",
]

#: Number of rounds in one 2Bit-Protocol exchange.
NUM_PHASES = 6


def soa_veto_mask(
    senders_mask: int, b1_mask: int, b2_mask: int, ack1_busy: int, ack2_busy: int
) -> int:
    """Vectorised round-R5 veto decision over a packed bitmask of senders.

    Bit ``i`` of each argument describes sender ``i`` of a SoA slot group:
    its two transmitted bits (``b1_mask``/``b2_mask``) and whether the
    channel was busy in its two ack rounds (``ack1_busy``/``ack2_busy``).
    The four veto conditions of :meth:`TwoBitSender._should_veto` collapse
    to "the ack echo differs from the transmitted bit" per bit pair, i.e. a
    XOR: bit ``i`` of the result is set iff sender ``i`` vetoes in R5.

    The decision reads nothing but busy flags, so it is valid under any
    busy model the SoA tier compiles — the unit-disk disjunction and the
    Friis power sum alike — and is unaffected by message loss, which turns
    a decode into a collision but never forges silence.
    """
    return ((b1_mask ^ ack1_busy) | (b2_mask ^ ack2_busy)) & senders_mask


class TwoBitOutcome(enum.Enum):
    """Result of one 2Bit-Protocol exchange for one participant."""

    PENDING = "pending"
    SUCCESS = "success"
    FAILURE = "failure"


class _PhaseTracker:
    """Small helper enforcing that phases are visited in order exactly once."""

    __slots__ = ("_next",)

    def __init__(self) -> None:
        self._next = 0

    def clone(self) -> "_PhaseTracker":
        other = _PhaseTracker()
        other._next = self._next
        return other

    def check(self, phase: int) -> None:
        if phase != self._next:
            raise ValueError(f"phase {phase} out of order; expected phase {self._next}")
        if not (0 <= phase < NUM_PHASES):
            raise ValueError(f"phase must be in [0, {NUM_PHASES}), got {phase}")
        self._next = phase + 1

    @property
    def finished(self) -> bool:
        return self._next >= NUM_PHASES


class TwoBitSender:
    """Sender role of the 2Bit-Protocol.

    Parameters
    ----------
    b1, b2:
        The two bits to transmit.  In the 1Hop-Protocol ``b1`` is the
        alternating parity bit and ``b2`` the data bit.
    """

    __slots__ = ("b1", "b2", "_ack1_busy", "_ack2_busy", "_veto_sent", "_final_busy", "_phase")

    def __init__(self, b1: int, b2: int) -> None:
        if b1 not in (0, 1) or b2 not in (0, 1):
            raise ValueError("bits must be 0 or 1")
        self.b1 = int(b1)
        self.b2 = int(b2)
        self._ack1_busy: Optional[bool] = None
        self._ack2_busy: Optional[bool] = None
        self._veto_sent = False
        self._final_busy: Optional[bool] = None
        self._phase = _PhaseTracker()

    def clone(self) -> "TwoBitSender":
        """Mid-exchange copy for cohort splits (state-identical, independent).

        Hand-rolled rather than ``copy.deepcopy``: splits happen inside the
        simulation hot path and the generic machinery is ~30x slower for
        these small fixed-slot machines.
        """
        other = TwoBitSender.__new__(TwoBitSender)
        other.b1 = self.b1
        other.b2 = self.b2
        other._ack1_busy = self._ack1_busy
        other._ack2_busy = self._ack2_busy
        other._veto_sent = self._veto_sent
        other._final_busy = self._final_busy
        other._phase = self._phase.clone()
        return other

    # -- driving ------------------------------------------------------------------
    def action(self, phase: int) -> bool:
        """Whether the sender broadcasts during ``phase``."""
        if phase == 0:
            return self.b1 == 1
        if phase == 2:
            return self.b2 == 1
        if phase == 4:
            self._veto_sent = self._should_veto()
            return self._veto_sent
        return False

    def listens(self, phase: int) -> bool:
        """Whether the sender needs the channel observation for ``phase``."""
        return phase in (1, 3, 5)

    def observe(self, phase: int, busy: bool) -> None:
        """Record the channel observation for an acknowledgement/veto round."""
        if phase == 1:
            self._ack1_busy = bool(busy)
        elif phase == 3:
            self._ack2_busy = bool(busy)
        elif phase == 5:
            self._final_busy = bool(busy)
        # Observations of the sender's own transmit rounds are ignored.

    # -- protocol logic ---------------------------------------------------------------
    def _should_veto(self) -> bool:
        """The four veto conditions of round R5 (paper, Section 4, Level 1)."""
        ack1 = bool(self._ack1_busy)
        ack2 = bool(self._ack2_busy)
        if self.b1 == 0 and ack1:
            return True
        if self.b1 == 1 and not ack1:
            return True
        if self.b2 == 0 and ack2:
            return True
        if self.b2 == 1 and not ack2:
            return True
        return False

    @property
    def veto_sent(self) -> bool:
        """Whether the sender broadcast a veto in round R5."""
        return self._veto_sent

    def outcome(self) -> TwoBitOutcome:
        """Result after the sixth round: success iff round R6 was silent."""
        if self._final_busy is None:
            return TwoBitOutcome.PENDING
        return TwoBitOutcome.FAILURE if self._final_busy else TwoBitOutcome.SUCCESS


class TwoBitReceiver:
    """Receiver role of the 2Bit-Protocol.

    A receiver estimates the two bits from the activity it perceives in rounds
    R1 and R3, echoes acknowledgements, and relays any veto it hears.  Its
    estimates are only meaningful when :meth:`outcome` reports success.
    """

    __slots__ = ("_heard1", "_heard2", "_heard_veto", "_ack1_sent", "_ack2_sent", "_veto_relayed")

    def __init__(self) -> None:
        self._heard1: Optional[bool] = None
        self._heard2: Optional[bool] = None
        self._heard_veto: Optional[bool] = None
        self._ack1_sent = False
        self._ack2_sent = False
        self._veto_relayed = False

    def clone(self) -> "TwoBitReceiver":
        """Mid-exchange copy for cohort splits (see :meth:`TwoBitSender.clone`)."""
        other = TwoBitReceiver.__new__(TwoBitReceiver)
        other._heard1 = self._heard1
        other._heard2 = self._heard2
        other._heard_veto = self._heard_veto
        other._ack1_sent = self._ack1_sent
        other._ack2_sent = self._ack2_sent
        other._veto_relayed = self._veto_relayed
        return other

    # -- driving ------------------------------------------------------------------
    def action(self, phase: int) -> bool:
        """Whether the receiver broadcasts during ``phase``."""
        if phase == 1:
            self._ack1_sent = bool(self._heard1)
            return self._ack1_sent
        if phase == 3:
            self._ack2_sent = bool(self._heard2)
            return self._ack2_sent
        if phase == 5:
            self._veto_relayed = bool(self._heard_veto)
            return self._veto_relayed
        return False

    def listens(self, phase: int) -> bool:
        return phase in (0, 2, 4)

    def observe(self, phase: int, busy: bool) -> None:
        if phase == 0:
            self._heard1 = bool(busy)
        elif phase == 2:
            self._heard2 = bool(busy)
        elif phase == 4:
            self._heard_veto = bool(busy)

    # -- outcome ---------------------------------------------------------------------
    @property
    def estimate(self) -> tuple[int, int]:
        """The receiver's estimate of the transmitted pair ``(b1, b2)``.

        A receiver assumes a bit is ``1`` exactly when it acknowledged it
        (i.e. when it perceived activity in the corresponding round).
        """
        return (1 if self._heard1 else 0, 1 if self._heard2 else 0)

    @property
    def veto_relayed(self) -> bool:
        """Whether this receiver broadcast a veto in round R6."""
        return self._veto_relayed

    def outcome(self) -> TwoBitOutcome:
        """Result after round R5: success iff the veto round was silent."""
        if self._heard_veto is None:
            return TwoBitOutcome.PENDING
        return TwoBitOutcome.FAILURE if self._heard_veto else TwoBitOutcome.SUCCESS

    def result(self) -> Optional[tuple[int, int]]:
        """The received pair if the exchange succeeded, else ``None``."""
        if self.outcome() is TwoBitOutcome.SUCCESS:
            return self.estimate
        return None


class TwoBitBlocker:
    """The "neighborhood watch" blocking role.

    A NeighborWatchRB device that has nothing (new) to send during its own
    square's broadcast interval must prevent any other device in the square —
    honest-but-ahead or Byzantine — from pushing data to the neighboring
    squares.  It does so by broadcasting during both veto rounds, which makes
    every honest receiver (activity in R5) and every honest co-sender
    (activity in R6) abort the exchange.

    ``always`` blockers veto unconditionally (the *idle veto*, which also
    prevents an idle, silent slot from being misinterpreted as a ``(0, 0)``
    pair; ``tests/test_twobit.py`` pins this); conditional blockers veto only
    when they perceived activity earlier in the slot.
    """

    __slots__ = ("always", "_heard_activity")

    def __init__(self, always: bool = True) -> None:
        self.always = bool(always)
        self._heard_activity = False

    def clone(self) -> "TwoBitBlocker":
        """Mid-slot copy for cohort splits (see :meth:`TwoBitSender.clone`)."""
        other = TwoBitBlocker.__new__(TwoBitBlocker)
        other.always = self.always
        other._heard_activity = self._heard_activity
        return other

    def action(self, phase: int) -> bool:
        if phase in (4, 5):
            return self.always or self._heard_activity
        return False

    def listens(self, phase: int) -> bool:
        return phase in (0, 1, 2, 3)

    def observe(self, phase: int, busy: bool) -> None:
        if phase in (0, 1, 2, 3) and busy:
            self._heard_activity = True

    @property
    def blocked(self) -> bool:
        """Whether the blocker actually vetoed (relevant for conditional blockers)."""
        return self.always or self._heard_activity
