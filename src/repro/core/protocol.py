"""Protocol interface shared by honest protocols and adversaries.

The paper's protocols are *slot synchronous*: time is divided into schedule
slots of six rounds (the "broadcast interval"), nodes know the global schedule
(it is derived from their location), and in every round a device either
broadcasts a frame or listens.  The simulator drives protocol objects through
exactly that interface:

* :meth:`Protocol.interests` declares which schedule slots the device ever
  cares about (its own slots plus the slots of the squares/nodes it listens
  to).  The engine uses this for sparse slot processing — a node that has no
  interest in a slot neither transmits nor observes during that slot, which is
  sound because nothing it ignores can affect its state.
* :meth:`Protocol.act` is called for every phase (round within the slot) of an
  interesting slot and returns either a :class:`~repro.core.messages.Frame` to
  broadcast or ``None`` to listen.
* :meth:`Protocol.observe` delivers the channel observation for phases in
  which the device listened, and :meth:`Protocol.end_slot` closes the slot.

Adversaries implement the same interface (plus a per-slot activity hint) so
that the engine treats honest and Byzantine devices uniformly.  The faster
tiers bind to concrete protocol classes rather than to flags on this
interface: the cohort runtime (:mod:`repro.sim.batch`) shares honest
:class:`~repro.core.neighborwatch.NeighborWatchNode` machines, and the
struct-of-arrays compiler (:mod:`repro.sim.soa`) lowers the three classes it
has kernels for.
"""

from __future__ import annotations

import abc
import enum
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Optional

from .messages import Bits, Frame

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from .schedule import Schedule

__all__ = [
    "ChannelState",
    "Observation",
    "SILENCE",
    "NodeContext",
    "Protocol",
]


class ChannelState(enum.IntEnum):
    """What a listening device perceives in one round.

    ``SILENT``   -- no activity at all: the crucial un-forgeable signal.
    ``MESSAGE``  -- exactly one frame was decoded (possibly via capture).
    ``COLLISION``-- the carrier-sensing MAC reports energy on the channel but
                    no frame could be decoded (collision or jamming noise).
    """

    SILENT = 0
    MESSAGE = 1
    COLLISION = 2


@dataclass(frozen=True, slots=True)
class Observation:
    """Per-round channel observation delivered to a listening device.

    ``busy`` and ``decoded`` are precomputed at construction rather than being
    properties: protocols consult them once per listened round, and because
    observation objects are interned (``SILENCE``, the shared collision, one
    object per decoded frame) a property would re-derive the same answer
    millions of times per run.

    ``busy`` — true when the device "receives a message or detects a
    collision"; the predicate the 2Bit-Protocol's acknowledgement and veto
    rules are written in terms of.  ``decoded`` — the decoded frame, if any.
    """

    state: ChannelState
    frame: Optional[Frame] = None
    busy: bool = field(init=False, repr=False, compare=False, default=False)
    decoded: Optional[Frame] = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self) -> None:
        object.__setattr__(self, "busy", self.state is not ChannelState.SILENT)
        if self.state is ChannelState.MESSAGE:
            object.__setattr__(self, "decoded", self.frame)


#: Shared immutable "nothing happened" observation (avoids per-round allocation).
SILENCE = Observation(ChannelState.SILENT)


@dataclass(slots=True)
class NodeContext:
    """Static per-device information handed to a protocol at setup time.

    Mirrors the capabilities the paper grants devices: knowledge of their own
    (approximate) location, the communication radius, the globally agreed
    schedule (derived from locations, not negotiated) and the length of the
    application message being broadcast.
    """

    node_id: int
    position: tuple[float, float]
    radius: float
    schedule: "Schedule"
    message_length: int
    is_source: bool = False
    source_message: Optional[Bits] = None
    rng_seed: int = 0

    def __post_init__(self) -> None:
        if self.is_source and self.source_message is None:
            raise ValueError("the source device must be given the message to broadcast")
        if self.source_message is not None and len(self.source_message) != self.message_length:
            raise ValueError("source_message length must equal message_length")


class Protocol(abc.ABC):
    """Base class for every per-device behaviour (honest or Byzantine)."""

    #: Set by the simulator; convenient for tracing.
    context: NodeContext

    #: Lazily-built per-instance cache for :meth:`_interned_frame`.
    _frame_cache: Optional[dict] = None

    #: Whether the device may transmit during slots it declared no interest in.
    #: Honest protocols never do; jamming adversaries set this to ``True`` so
    #: the engine asks them (via :meth:`wants_slot`) about every slot.
    may_transmit_anywhere: bool = False

    def setup(self, context: NodeContext) -> None:
        """Bind the protocol instance to a device.  Called once before round 0."""
        self.context = context

    # -- schedule interaction -------------------------------------------------
    @abc.abstractmethod
    def interests(self) -> Iterable[int]:
        """Schedule slots this device participates in (as sender or listener)."""

    def wants_slot(self, slot_cycle: int, slot: int) -> bool:  # pragma: no cover - default
        """Hook for adversaries: whether the device may transmit during this
        occurrence of ``slot`` even though it is not in :meth:`interests`.

        Honest protocols never transmit outside their declared interests, so
        the default returns ``False``.
        """
        return False

    def _interned_frame(self, kind) -> Frame:
        """The device's payload-less frame of ``kind``, allocated once.

        Hot-path helper: protocols that broadcast bare ``Frame(kind, id)``
        frames (data bits, acks, vetoes, jam noise) put the same few values on
        the air millions of times per run; interning replaces the per-round
        dataclass construction with a dict lookup.  Frames compare by value,
        so sharing instances is observationally identical.
        """
        cache = self._frame_cache
        if cache is None:
            cache = {}
            self._frame_cache = cache
        frame = cache.get(kind)
        if frame is None:
            frame = Frame(kind, self.context.node_id)
            cache[kind] = frame
        return frame

    # -- per-round behaviour ---------------------------------------------------
    @abc.abstractmethod
    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        """Return a frame to broadcast in this round, or ``None`` to listen."""

    @abc.abstractmethod
    def observe(self, slot_cycle: int, slot: int, phase: int, observation: Observation) -> None:
        """Deliver the channel observation for a round in which the device listened."""

    def end_slot(self, slot_cycle: int, slot: int) -> None:  # pragma: no cover - default
        """Called by the engine after the last phase of every slot the device
        participated in; protocols finalise their per-slot state machines here."""

    # -- outcome ---------------------------------------------------------------
    @property
    @abc.abstractmethod
    def delivered(self) -> bool:
        """Whether the device has delivered (committed to) the whole message."""

    @property
    def delivered_message(self) -> Optional[Bits]:
        """The message the device delivered, or ``None`` if not yet delivered."""
        return None
