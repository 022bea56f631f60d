"""Simple epidemic flooding baseline.

Section 6.2 of the paper compares the Byzantine-tolerant protocols against a
simple epidemic protocol with no built-in fault tolerance: the source
broadcasts the whole message in a single frame, and every device that receives
the message rebroadcasts it once during its own slot.  Any Byzantine
interference (a collision, a jammed slot, a spoofed payload) can disrupt it,
which is exactly the point of the comparison — it establishes the baseline
cost of flooding a message across the network, against which the overhead of
NeighborWatchRB (about 7.7x in the paper) and MultiPathRB (orders of
magnitude) is measured.

The baseline uses the same slotted TDMA structure as the other protocols but
with a single round per slot and no per-bit exchange: an entire application
message fits in one frame.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..registry import ProtocolPlugin, register_protocol
from .messages import Bits, Frame, FrameKind, validate_bits
from .protocol import NodeContext, Observation, Protocol
from .schedule import NodeSchedule

__all__ = ["EpidemicConfig", "EpidemicNode"]


class EpidemicConfig:
    """Parameters of the epidemic baseline.

    ``rebroadcast_count`` controls how many times a device repeats the message
    in its own slots after adopting it (the paper's baseline uses a single
    broadcast; allowing more repeats is useful to study how much redundancy a
    non-authenticated protocol needs to survive losses).
    """

    __slots__ = ("rebroadcast_count",)

    def __init__(self, rebroadcast_count: int = 1) -> None:
        if rebroadcast_count < 1:
            raise ValueError("rebroadcast_count must be >= 1")
        self.rebroadcast_count = int(rebroadcast_count)


class EpidemicNode(Protocol):
    """Per-device behaviour of the epidemic flooding baseline.

    ``preloaded_message`` turns the device into a fake-message injector (a
    Byzantine "liar"): because the baseline performs no authentication at all,
    a single such device can poison every node it reaches first.

    The node-level TDMA colouring gives nearly every device its own pair of
    slot and listen set, so devices would not group into cohorts: the
    protocol runs per device through ``act``/``observe`` (allocation-free
    on the single-phase path), or on the SoA tier through
    :meth:`soa_node_spec`.
    """

    def __init__(
        self,
        config: Optional[EpidemicConfig] = None,
        *,
        preloaded_message: Optional[Iterable[int]] = None,
    ) -> None:
        self.config = config if config is not None else EpidemicConfig()
        self._preloaded = validate_bits(preloaded_message) if preloaded_message is not None else None
        self._message: Optional[Bits] = None
        self._remaining_broadcasts = 0
        self._my_slot = -1
        self._interests: list[int] = []

    # -- setup ---------------------------------------------------------------------------
    def setup(self, context: NodeContext) -> None:
        super().setup(context)
        schedule = context.schedule
        if not isinstance(schedule, NodeSchedule):
            raise TypeError("the epidemic baseline requires a NodeSchedule")
        if schedule.phases_per_slot != 1:
            raise ValueError("the epidemic baseline uses single-round slots")
        self._schedule = schedule
        self._my_slot = schedule.slot_of_node(context.node_id)
        self._interests = schedule.neighbor_slots_of_node(context.node_id)
        if context.is_source:
            self._adopt(tuple(context.source_message or ()))
        elif self._preloaded is not None:
            self._adopt(tuple(self._preloaded[: context.message_length]))

    def _adopt(self, message: Bits) -> None:
        if self._message is not None:
            return
        self._message = tuple(message)
        self._remaining_broadcasts = self.config.rebroadcast_count

    # -- protocol interface ------------------------------------------------------------------
    def interests(self) -> Iterable[int]:
        """The device's own slot and every slot it listens in.

        That is its row of :meth:`NodeSchedule.neighbor_slots_of_node`: the
        slots of every device in range, its own included, plus
        :data:`~repro.core.schedule.SOURCE_SLOT`, already ascending and
        distinct, so it is handed back as it stands.
        """
        return self._interests

    def soa_node_spec(self) -> dict:
        """This device's role in every SoA epidemic slot group it joins.

        The compiler resolves the bound methods once per device and derives
        ownership by comparing ``owner_slot`` against the group's slot: a
        device listens in ~density-many slots, so one spec per (member, slot)
        pair would dominate the compile at paper scale.  Every group member
        is a potential adopter (an owner with nothing to flood listens in its
        own slot like everyone else).  Only an owner pops, so only an owner
        ever transmits in its group, and the group's hearers CSR holds the
        owners' columns alone.
        ``pending_broadcasts`` tells the kernel when an owner that just
        popped has spent its last broadcast, so it can stop polling it.
        """
        return {
            "owner_slot": self._my_slot,
            "pop": self._decide_broadcast,
            "adopt": self._soa_try_adopt,
            "pending_broadcasts": self._pending_broadcasts,
        }

    def _soa_try_adopt(self, payload: tuple) -> bool:
        """Adopt a sole decoded payload, with the same validation as observe().

        Returns whether the device newly adopted (the SoA kernel stamps the
        delivery round from this).
        """
        if self._message is not None:
            return False
        if len(payload) != self.context.message_length:
            return False
        if any(bit not in (0, 1) for bit in payload):
            return False
        self._adopt(tuple(int(b) for b in payload))
        return True

    def _decide_broadcast(self) -> Optional[Bits]:
        """Consume one rebroadcast if the device has something to flood."""
        if self._message is None or self._remaining_broadcasts <= 0:
            return None
        self._remaining_broadcasts -= 1
        return self._message

    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        if slot != self._my_slot or phase != 0:
            return None
        payload = self._decide_broadcast()
        if payload is None:
            return None
        return Frame(FrameKind.PAYLOAD, self.context.node_id, tuple(payload))

    def observe(self, slot_cycle: int, slot: int, phase: int, observation: Observation) -> None:
        if self._message is not None:
            # Already adopted: nothing below can change any state (_adopt is a
            # no-op), so skip the per-observation payload validation.
            return
        frame = observation.decoded
        if frame is None or frame.kind is not FrameKind.PAYLOAD:
            return
        if len(frame.payload) != self.context.message_length:
            return
        if any(bit not in (0, 1) for bit in frame.payload):
            return
        self._adopt(tuple(int(b) for b in frame.payload))

    # -- outcome -----------------------------------------------------------------------------
    @property
    def delivered(self) -> bool:
        return self._message is not None

    @property
    def delivered_message(self) -> Optional[Bits]:
        return self._message

    def _pending_broadcasts(self) -> int:
        """Broadcasts the device still intends to perform."""
        return self._remaining_broadcasts if self._message is not None else 0

    pending_broadcasts = property(_pending_broadcasts)


# -- registry plugin ----------------------------------------------------------------------
@register_protocol("epidemic", aliases=("flood", "flooding"))
class EpidemicPlugin(ProtocolPlugin):
    """Registry plugin wiring the epidemic baseline into the scenario builder.

    Epidemic rounds carry whole payload frames (the authenticated protocols
    move one bit per round), which :meth:`airtime_multiplier` exposes so
    comparisons can weigh rounds by their on-air cost.
    """

    protocol_classes = (EpidemicNode,)

    def build(self, config) -> EpidemicNode:
        return EpidemicNode(EpidemicConfig())

    def build_liar(self, config, fake_message) -> EpidemicNode:
        return EpidemicNode(config=EpidemicConfig(), preloaded_message=fake_message)

    def build_schedule(self, deployment, config) -> NodeSchedule:
        return NodeSchedule(
            deployment.positions,
            config.radius,
            deployment.source_index,
            separation=config.epidemic_slot_separation,
            norm=config.norm,
            phases_per_slot=1,
        )

    def airtime_multiplier(self, message_length: int) -> int:
        return max(1, message_length)
