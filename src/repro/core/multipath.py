"""MultiPathRB: optimally resilient multi-hop authenticated broadcast.

MultiPathRB keeps the single-hop layer of NeighborWatchRB (the 1Hop-Protocol)
but replaces the meta-node squares with an explicit voting strategy in the
style of Bhandari and Vaidya: a device commits to a bit only after hearing it
vouched for along ``t + 1`` node-disjoint paths that all lie within a single
neighborhood, so that at least one of them must be honest.  Three kinds of
control messages circulate, each streamed bit-by-bit over the 1Hop-Protocol
during the sender's own broadcast interval:

``SOURCE(i, b)``
    sent by the source for every bit of the message; devices in range of the
    source commit directly (Theorem 2 authenticates the stream).
``COMMIT(i, b)``
    sent by a device when it commits to bit ``i`` with value ``b``.
``HEARD(u, i, b)``
    sent by a device that received ``COMMIT(i, b)`` from device ``u`` (the
    *cause*); honest devices relay a HEARD for every COMMIT they receive.

A device commits to ``(i, b)`` once it can exhibit at least ``t + 1`` distinct
*voters* — devices that either sent it a COMMIT directly or are the cause of a
HEARD it received — such that the voters, the HEARD senders involved and the
commit itself all fit inside one neighborhood.  Because the TDMA schedule
never reuses a slot within interference range, the slot in which a message
arrives identifies the sender's location, which is how voters and causes are
attributed without any authentication.

The protocol is tuned with the parameter ``t`` (faults tolerated per
neighborhood); with ``t < R(2R+1)/2`` it is optimally resilient (Theorem 4)
and it keeps the pipelined ``O(beta*D + log|Sigma|)`` running time
(Theorem 5).
"""

from __future__ import annotations

import enum
from typing import Iterable, Optional

from ..registry import ProtocolPlugin, register_protocol
from .messages import (
    Bits,
    ControlCodec,
    ControlMessage,
    ControlType,
    Frame,
    FrameKind,
    validate_bits,
)
from .onehop import OneHopReceiver, OneHopSender
from .protocol import NodeContext, Observation, Protocol
from .schedule import NodeSchedule
from .twobit import TwoBitBlocker

__all__ = ["MultiPathConfig", "MultiPathNode"]


class _Role(enum.Enum):
    IDLE = "idle"
    SENDER = "sender"
    BLOCKER = "blocker"
    RECEIVER = "receiver"


class MultiPathConfig:
    """Tunable parameters of MultiPathRB.

    Parameters
    ----------
    tolerance:
        The number of Byzantine devices per neighborhood the protocol is tuned
        to tolerate (the paper simulates ``t = 3`` and ``t = 5``); a device
        needs ``tolerance + 1`` distinct voters to commit a bit it did not
        hear directly from the source.
    relay_heard:
        Whether the device relays HEARD messages.  Honest devices always do;
        the paper's lying devices never do.
    idle_veto:
        Veto the device's own interval when its control-message queue is
        empty, so that a silent interval is never accepted as a ``(0, 0)``
        pair (see :class:`~repro.core.twobit.TwoBitBlocker`).
    """

    __slots__ = ("tolerance", "relay_heard", "idle_veto")

    def __init__(self, tolerance: int = 3, relay_heard: bool = True, idle_veto: bool = True) -> None:
        if tolerance < 0:
            raise ValueError("tolerance must be non-negative")
        self.tolerance = int(tolerance)
        self.relay_heard = bool(relay_heard)
        self.idle_veto = bool(idle_veto)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"MultiPathConfig(t={self.tolerance}, relay_heard={self.relay_heard}, "
            f"idle_veto={self.idle_veto})"
        )


class MultiPathNode(Protocol):
    """Per-device behaviour of MultiPathRB.

    ``preloaded_message`` reproduces the paper's lying devices: they start with
    a fake message fully committed (and therefore flood COMMIT messages for its
    bits) while otherwise running the correct protocol; combined with
    ``relay_heard=False`` in their config this matches Section 6.1 exactly.

    The commit rule (:meth:`_check_commit`) and HEARD-cause resolution
    measure distances from *this device's position*, and two devices of one
    slot are more than the slot separation (``3R`` by default) apart, so no
    two devices run the same state machine: the cohort runtime never
    shares it, and it runs per device through ``act``/``observe``/
    ``end_slot``.  Its transitions consume only channel
    activity (``busy``) and no randomness, and the slot machinery is the
    same 2Bit/1Hop stack as NeighborWatchRB, so its slots lower to the
    struct-of-arrays kernels of :mod:`repro.sim.soa` through
    :meth:`soa_state_spec`.
    """

    def __init__(
        self,
        config: Optional[MultiPathConfig] = None,
        *,
        preloaded_message: Optional[Iterable[int]] = None,
    ) -> None:
        self.config = config if config is not None else MultiPathConfig()
        self._preloaded = validate_bits(preloaded_message) if preloaded_message is not None else None
        self._commit_values: dict[int, int] = {}
        self._votes: dict[tuple[int, int], dict[int, list[Optional[int]]]] = {}
        self._heard_sent: set[tuple[int, int, int]] = set()
        self._receivers: dict[int, OneHopReceiver] = {}
        self._peer_of_slot: dict[int, int] = {}
        self._cause_of: dict[int, Optional[int]] = {}
        self._sender = OneHopSender()
        self._role = _Role.IDLE
        self._active_receiver: Optional[OneHopReceiver] = None
        self._blocker: Optional[TwoBitBlocker] = None
        self._my_slot = -1
        self._is_source = False
        self._delivered_message: Optional[Bits] = None

    # -- setup -----------------------------------------------------------------------------
    def setup(self, context: NodeContext) -> None:
        super().setup(context)
        schedule = context.schedule
        if not isinstance(schedule, NodeSchedule):
            raise TypeError("MultiPathRB requires a NodeSchedule")
        self._schedule = schedule
        self._is_source = context.is_source
        self._my_slot = schedule.slot_of_node(context.node_id)
        k = context.message_length
        self._codec = ControlCodec(message_length=k, num_slots=schedule.num_slots)

        for slot in schedule.neighbor_slots_of_node(context.node_id):
            if slot == self._my_slot:
                continue
            owner = schedule.owner_in_neighborhood(slot, context.node_id)
            if owner is None:
                continue
            self._receivers[slot] = OneHopReceiver(frame_bits=self._codec.frame_bits)
            self._peer_of_slot[slot] = owner

        if self._is_source:
            message = context.source_message or ()
            for index, bit in enumerate(message, start=1):
                self._commit_values[index] = int(bit)
                self._enqueue(ControlMessage(ControlType.SOURCE, index, int(bit)))
        elif self._preloaded is not None:
            for index, bit in enumerate(self._preloaded[:k], start=1):
                self._commit_values[index] = int(bit)
                self._enqueue(ControlMessage(ControlType.COMMIT, index, int(bit)))

    # -- helpers ------------------------------------------------------------------------------
    def _enqueue(self, message: ControlMessage) -> None:
        self._sender.extend_encoded(self._codec.encode(message))

    def _resolve_cause(self, cause_slot: int) -> Optional[int]:
        """Resolve the device a HEARD message's cause slot refers to.

        The cause lies within ``R`` of the HEARD sender, hence within ``2R`` of
        this device: it is the unique holder of the slot in this device's row
        at ``2R`` (:meth:`NodeSchedule.owner_in_neighborhood`), and ``None``
        when no device or several there hold it (two holders of a slot are
        only ``separation`` apart, by default ``3R``, so both can lie within
        ``2R``).  Devices never move, so each cause slot is resolved once.
        """
        causes = self._cause_of
        if cause_slot not in causes:
            causes[cause_slot] = self._schedule.owner_in_neighborhood(
                cause_slot, self.context.node_id, 2.0 * self.context.radius + 1e-9
            )
        return causes[cause_slot]

    # -- schedule interface ------------------------------------------------------------------------
    def interests(self) -> Iterable[int]:
        slots = set(self._receivers)
        slots.add(self._my_slot)
        return sorted(slots)

    # -- struct-of-arrays lowering hook ------------------------------------------------------------
    def soa_state_spec(self, slot: int) -> Optional[dict]:
        """Role of this device in ``slot`` for the SoA compiler.

        Only a completed control frame can change state, so the kernel keeps
        each framed stream's partial frame in its own frame planes and
        decides from a completed frame alone whether it can move this
        device: ``decode_frame`` reads it, and ``frame_gate`` (the rule
        :meth:`_drain_frame` applies) names the index whose commit makes it
        inert.  The kernel keeps, per bit index, the mask of its members
        whose ``committed`` map holds it, seeded from this live map at
        compile time and updated after every drain and scalar fallback, so
        only a frame that can move the device is handed to ``drain_slot``,
        as one MSB-first integer.  The stream itself (its count and partial
        frame) is stored back only when the kernel flushes.
        """
        if slot == self._my_slot:
            return {
                "role": "owner",
                "sender": self._sender,
                "idle_veto": self.config.idle_veto,
            }
        receiver = self._receivers.get(slot)
        if receiver is None:
            return None
        return {
            "role": "receiver",
            "receiver": receiver,
            "drain_slot": self._drain_frame,
            "decode_frame": self._codec.decode_frame,
            "frame_gate": self._frame_gate,
            "committed": self._commit_values,
        }

    # -- slot lifecycle ---------------------------------------------------------------------------------
    def _begin_slot(self, slot: int) -> None:
        self._role = _Role.IDLE
        self._active_receiver = None
        self._blocker = None
        if slot == self._my_slot:
            if self._sender.has_pending:
                self._role = _Role.SENDER
                self._sender.begin_slot()
            else:
                self._role = _Role.BLOCKER
                self._blocker = TwoBitBlocker(always=self.config.idle_veto)
            return
        receiver = self._receivers.get(slot)
        if receiver is not None and receiver.begin_slot():
            self._role = _Role.RECEIVER
            self._active_receiver = receiver

    # -- engine-facing entry points -------------------------------------------------------------
    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        if phase == 0:
            self._begin_slot(slot)
        transmit = False
        kind = FrameKind.DATA_BIT
        if self._role is _Role.SENDER:
            transmit = self._sender.action(phase)
            kind = FrameKind.DATA_BIT if phase in (0, 2) else FrameKind.VETO
        elif self._role is _Role.BLOCKER and self._blocker is not None:
            transmit = self._blocker.action(phase)
            kind = FrameKind.VETO
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            transmit = self._active_receiver.action(phase)
            kind = FrameKind.ACK if phase in (1, 3) else FrameKind.VETO
        return self._interned_frame(kind) if transmit else None

    def observe(self, slot_cycle: int, slot: int, phase: int, observation: Observation) -> None:
        busy = observation.busy
        if self._role is _Role.SENDER:
            self._sender.observe(phase, busy)
        elif self._role is _Role.BLOCKER and self._blocker is not None:
            self._blocker.observe(phase, busy)
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            self._active_receiver.observe(phase, busy)

    def end_slot(self, slot_cycle: int, slot: int) -> None:
        if self._role is _Role.SENDER:
            self._sender.finish_slot()
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            if self._active_receiver.finish_slot() is not None:
                self._drain_stream(slot)
        self._role = _Role.IDLE
        self._active_receiver = None
        self._blocker = None

    # -- control-message processing ---------------------------------------------------------------------
    def _drain_stream(self, slot: int) -> None:
        """Handle the control frame that ``slot``'s stream just completed, if any.

        Called after each accepted bit.  The stream keeps only its partial
        frame, and the bit that fills it empties it into :meth:`_drain_frame`
        (:meth:`OneHopReceiver.take_frame`); the SoA kernel completes the
        same frames in its planes and hands :meth:`_drain_frame` only those
        that can move this device.
        """
        frame = self._receivers[slot].take_frame()
        if frame is not None:
            self._drain_frame(slot, frame)

    @staticmethod
    def _frame_gate(message: Optional[ControlMessage]) -> Optional[int]:
        """The bit index whose commit makes handling ``message`` change nothing.

        A device handles a frame only when the gate is not ``None`` and not
        in its commit map.  A frame that decodes to nothing is inert: its
        gate is ``None``.  A SOURCE or HEARD message is gated by its own
        index, because both paths end in ``_commit``/``_add_vote``, which
        ignore a committed index.  A COMMIT message gets 0, an index no
        device commits (indexes are 1-based): it relays HEARD once per
        (peer, index, value) whatever the device committed.
        """
        if message is None:
            return None
        return 0 if message.mtype is ControlType.COMMIT else message.bit_index

    def _drain_frame(self, slot: int, frame: int) -> None:
        """Handle a completed control frame of ``slot``'s stream, read as an MSB-first integer.

        A frame that cannot move this device (see :meth:`_frame_gate`) is
        dropped unhandled.
        """
        message = self._codec.decode_frame(frame)
        gate = self._frame_gate(message)
        if gate is not None and gate not in self._commit_values:
            self._handle_control(self._peer_of_slot[slot], message)

    def _handle_control(self, peer: int, message: ControlMessage) -> None:
        if message.mtype is ControlType.SOURCE:
            if peer == self._schedule.source_index:
                self._commit(message.bit_index, message.bit_value, direct=True)
            return
        if message.mtype is ControlType.COMMIT:
            self._add_vote(message.bit_index, message.bit_value, voter=peer, witness=None)
            if self.config.relay_heard:
                key = (peer, message.bit_index, message.bit_value)
                if key not in self._heard_sent:
                    self._heard_sent.add(key)
                    self._enqueue(
                        ControlMessage(
                            ControlType.HEARD,
                            message.bit_index,
                            message.bit_value,
                            cause=self._schedule.slot_of_node(peer),
                        )
                    )
            return
        if message.mtype is ControlType.HEARD:
            cause = self._resolve_cause(message.cause)
            if cause is None or cause == self.context.node_id:
                return
            self._add_vote(message.bit_index, message.bit_value, voter=cause, witness=peer)

    def _add_vote(self, index: int, value: int, *, voter: int, witness: Optional[int]) -> None:
        if index in self._commit_values:
            return
        key = (index, value)
        per_voter = self._votes.setdefault(key, {})
        per_voter.setdefault(voter, []).append(witness)
        self._check_commit(index, value)

    def _check_commit(self, index: int, value: int) -> None:
        """Commit ``(index, value)`` once ``t + 1`` neighborhood-compatible voters exist.

        A candidate neighborhood is the R-ball around this device or around
        one voter.  Its membership tests are :meth:`NodeSchedule.within`:
        whether the centre is in a voter's (or witness's) row at ``R``
        (plus ``1e-9``).  This device's centre is its schedule position,
        which is its context position (the builder takes both from the
        deployment).
        """
        per_voter = self._votes.get((index, value), {})
        needed = self.config.tolerance + 1
        if len(per_voter) < needed:
            return
        reach = self.context.radius + 1e-9
        within = self._schedule.within
        for center in (self.context.node_id, *per_voter):
            count = 0
            for voter, witnesses in per_voter.items():
                if not within(voter, center, reach):
                    continue
                if any(witness is None or within(witness, center, reach) for witness in witnesses):
                    count += 1
                    if count >= needed:
                        self._commit(index, value, direct=False)
                        return

    def _commit(self, index: int, value: int, *, direct: bool) -> None:
        if index in self._commit_values:
            return
        if not (1 <= index <= self.context.message_length):
            return
        self._commit_values[index] = int(value)
        self._votes.pop((index, 0), None)
        self._votes.pop((index, 1), None)
        if not self._is_source:
            self._enqueue(ControlMessage(ControlType.COMMIT, index, int(value)))

    # -- outcome ----------------------------------------------------------------------------------------------
    @property
    def committed(self) -> dict[int, int]:
        """Mapping of committed bit indexes (1-based) to values."""
        return dict(self._commit_values)

    @property
    def delivered(self) -> bool:
        k = self.context.message_length
        return all(index in self._commit_values for index in range(1, k + 1))

    @property
    def delivered_message(self) -> Optional[Bits]:
        if not self.delivered:
            return None
        if self._delivered_message is None:
            k = self.context.message_length
            self._delivered_message = tuple(self._commit_values[i] for i in range(1, k + 1))
        return self._delivered_message


# -- registry plugin ----------------------------------------------------------------------
@register_protocol("multipath", aliases=("multipathrb", "mp"))
class MultiPathPlugin(ProtocolPlugin):
    """Registry plugin wiring MultiPathRB into the scenario builder.

    MultiPathRB streams whole control frames over the 1Hop-Protocol, so one
    hop of pipeline progress costs a frame's worth of successful slots —
    :meth:`bits_per_hop` scales the generous round cap accordingly.
    """

    protocol_classes = (MultiPathNode,)

    def build(self, config) -> MultiPathNode:
        return MultiPathNode(
            MultiPathConfig(tolerance=config.multipath_tolerance, idle_veto=config.idle_veto)
        )

    def build_liar(self, config, fake_message) -> MultiPathNode:
        liar_config = MultiPathConfig(
            tolerance=int(config.multipath_tolerance), relay_heard=False
        )
        return MultiPathNode(config=liar_config, preloaded_message=fake_message)

    def build_schedule(self, deployment, config) -> NodeSchedule:
        return NodeSchedule(
            deployment.positions,
            config.radius,
            deployment.source_index,
            separation=config.separation,
            norm=config.norm,
        )

    def bits_per_hop(self, config, num_slots: int) -> int:
        return ControlCodec(config.message_length, num_slots).frame_bits
