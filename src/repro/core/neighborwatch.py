"""NeighborWatchRB: multi-hop authenticated broadcast via meta-node squares.

The plane is partitioned into squares small enough that any device in a square
can talk directly to any device in the eight neighboring squares.  All honest
devices in a square behave identically — they form a single *meta-node* — and
actively prevent any device of their square from disseminating information the
whole square has not committed to ("neighborhood watch").  Concretely:

* every device maintains, for each neighboring square (plus the source, when
  in range), a 1Hop-Protocol receiver buffering the bits that square has
  authentically relayed so far;
* a device *commits* to bit ``i`` once it has received bits ``1..i`` from one
  of those neighbors (the **2-voting** variant requires two distinct
  neighboring squares to agree on the prefix; bits heard directly from the
  source always suffice on their own because Theorem 2 authenticates them);
* during its own square's broadcast interval a device acts as a 1Hop sender
  for its next committed-but-not-yet-relayed bit; devices of the square with
  nothing new to send *block* the interval by broadcasting in both veto
  rounds, so data leaves the square only when every honest member has
  committed to it;
* an idle square also vetoes its own interval (the *idle veto*), so that a
  silent interval is never mistaken for a genuine ``(0, 0)`` pair by the
  neighbors.

The protocol tolerates any number of Byzantine devices as long as every square
contains at least one honest device — ``t < ceil(R/2)^2`` in the analytical
model (Theorem 3) — and the 2-voting variant pushes this to roughly
``t < R^2 / 2`` because a fake bit must then be vouched for by two fully
Byzantine squares.
"""

from __future__ import annotations

import enum
import math
from typing import Iterable, Optional

import numpy as np

from ..registry import ProtocolPlugin, register_protocol
from ..topology.geometry import l2_distance_floats
from .messages import Bits, Frame, FrameKind, validate_bits
from .onehop import OneHopReceiver, OneHopSender
from .protocol import NodeContext, Observation, Protocol
from .regions import SquareGrid
from .runtime import END_PHASE, OPAQUE_LISTEN, PhaseContext, action_spec
from .schedule import SOURCE_SLOT, SquareSchedule
from .twobit import TwoBitBlocker

__all__ = ["NeighborWatchConfig", "NeighborWatchNode", "NeighborWatchPlugin", "NeighborWatch2VotePlugin"]


class _Role(enum.Enum):
    """What the device is doing during the current slot."""

    IDLE = "idle"
    SENDER = "sender"
    BLOCKER = "blocker"
    RECEIVER = "receiver"


class NeighborWatchConfig:
    """Tunable parameters of NeighborWatchRB.

    Parameters
    ----------
    votes_required:
        ``1`` for plain NeighborWatchRB, ``2`` for the 2-voting variant.
    idle_veto:
        Whether devices veto their own square's interval when they have
        nothing to send.  Required for soundness: without it a silent
        interval reads as a ``(0, 0)`` pair (see
        :class:`~repro.core.twobit.TwoBitBlocker`).  Exposed for the ablation
        benchmark.
    """

    __slots__ = ("votes_required", "idle_veto")

    def __init__(self, votes_required: int = 1, idle_veto: bool = True) -> None:
        if votes_required not in (1, 2):
            raise ValueError("votes_required must be 1 or 2")
        self.votes_required = int(votes_required)
        self.idle_veto = bool(idle_veto)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"NeighborWatchConfig(votes={self.votes_required}, idle_veto={self.idle_veto})"


class NeighborWatchNode(Protocol):
    """Per-device behaviour of NeighborWatchRB.

    The state machine exists once, as the ``_act_core``/``_observe_core``/
    ``_end_core`` transitions, with two equally thin entry points: the legacy
    per-device ``act``/``observe``/``end_slot`` interface (oracle engine
    path) and the typed phase-machine interface ``phase_act``/
    ``phase_observe``/``phase_end`` used by the cohort runtime.
    NeighborWatchRB is the paper's meta-node protocol — all honest devices of
    a square behave identically until their observations diverge — and its
    transitions consume no randomness and never consult the device identity
    after setup, so it is :attr:`shareable`: the cohort runtime evaluates one
    machine per group of state-identical square members.  The transitions
    consume only channel *activity* (``shared_observation_attr = "busy"``),
    so members that decode different frames but agree on activity stay
    shared.

    Parameters
    ----------
    config:
        Protocol variant parameters.
    preloaded_message:
        When given, the device starts with this bit string already committed.
        The honest source uses it implicitly (via ``context.source_message``);
        the *lying* Byzantine devices of Section 6.1 are simulated exactly as
        the paper describes, by preloading them with a fake message while they
        otherwise run the correct protocol.
    """

    shareable = True
    shared_observation_attr = "busy"
    soa_compilable = True

    def __init__(
        self,
        config: Optional[NeighborWatchConfig] = None,
        *,
        preloaded_message: Optional[Iterable[int]] = None,
    ) -> None:
        self.config = config if config is not None else NeighborWatchConfig()
        self._preloaded = validate_bits(preloaded_message) if preloaded_message is not None else None
        self._committed: list[int] = []
        self._receivers: dict[int, OneHopReceiver] = {}
        self._sender = OneHopSender()
        self._role: _Role = _Role.IDLE
        self._active_receiver: Optional[OneHopReceiver] = None
        self._blocker: Optional[TwoBitBlocker] = None
        self._sending_active = False
        self._my_slot: int = -1
        self._is_source = False
        self._delivered_message: Optional[Bits] = None

    # -- setup ------------------------------------------------------------------------
    def setup(self, context: NodeContext) -> None:
        super().setup(context)
        schedule = context.schedule
        if not isinstance(schedule, SquareSchedule):
            raise TypeError("NeighborWatchRB requires a SquareSchedule")
        self._schedule = schedule
        self._is_source = context.is_source
        self._my_slot = schedule.slot_of_node(context.node_id)
        k = context.message_length

        if self._is_source:
            # The source behaves independently of any square: it already holds
            # the message and only ever transmits during the first interval.
            self._committed = list(context.source_message or ())
            self._sender.extend(self._committed)
            return

        if self._preloaded is not None:
            # Lying devices start with a (fake) message already committed.
            self._committed = list(self._preloaded[:k])
            self._sender.extend(self._committed)

        for slot in schedule.neighbor_square_slots(schedule.square_of_node(context.node_id)):
            self._receivers.setdefault(slot, OneHopReceiver(expected_length=k))
        # Listen to the source only when it is actually within range; the
        # schedule gives every device the source's location, mirroring the
        # paper's assumption that slot 0 is known to belong to the source.
        # The square partition guarantees range for neighbors; for the source
        # we measure with the Euclidean norm used by the simulation deployments.
        src_pos = schedule.positions[schedule.source_index].tolist()
        my_pos = np.asarray(context.position, dtype=float).tolist()
        if l2_distance_floats(my_pos, src_pos) <= context.radius + 1e-12:
            self._receivers[SOURCE_SLOT] = OneHopReceiver(expected_length=k)

    # -- schedule interface ---------------------------------------------------------------
    def interests(self) -> Iterable[int]:
        if self._is_source:
            return (SOURCE_SLOT,)
        slots = set(self._receivers)
        slots.add(self._my_slot)
        return sorted(slots)

    def cohort_key(self):
        """Everything that distinguishes this device's post-setup state.

        Devices of the same square share ``_my_slot`` and the neighbor-square
        receiver slots; whether the *source* receiver is present depends on
        the device's distance to the source, so the receiver slot set is part
        of the key (it also fixes the interest set).  Preloaded (lying)
        devices and the source hold different initial commitments and are
        keyed apart; config parameters change the transition function itself.
        """
        return (
            self.config.votes_required,
            self.config.idle_veto,
            self._my_slot,
            frozenset(self._receivers),
            self._is_source,
            self._preloaded,
            self.context.message_length,
        )

    def soa_state_spec(self, slot: int) -> Optional[dict]:
        """Role of this device in ``slot`` for the SoA compiler.

        In its own slot the device either streams bits from ``_sender`` or
        blocks (``idle_veto`` fixes whether an idle owner vetoes
        unconditionally); in a receiver slot the kernel drives the bound
        :class:`OneHopReceiver` stream and re-runs the commit pipeline after
        an accepted bit that lands at index ``len(committed)`` — the only
        index whose votes the rule reads.  ``committed`` is the live list
        the rule extends, so the kernel sees its length move.
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
            "update_commits": self._update_commits,
            "committed": self._committed,
        }

    # -- slot lifecycle ----------------------------------------------------------------------
    def _begin_slot(self, slot: int) -> None:
        self._role = _Role.IDLE
        self._active_receiver = None
        self._blocker = None
        self._sending_active = False

        if slot == self._my_slot:
            if self._sender.has_pending:
                self._role = _Role.SENDER
                self._sending_active = self._sender.begin_slot()
            elif self.config.idle_veto:
                self._role = _Role.BLOCKER
                self._blocker = TwoBitBlocker(always=True)
            else:
                self._role = _Role.BLOCKER
                self._blocker = TwoBitBlocker(always=False)
            return

        receiver = self._receivers.get(slot)
        if receiver is not None:
            if receiver.begin_slot():
                self._role = _Role.RECEIVER
                self._active_receiver = receiver
            else:
                self._role = _Role.IDLE

    # -- phase machine (primary) and per-device adapters -----------------------------------
    # The phase_* transitions hold the logic directly (no inner-core
    # indirection): the cohort runtime calls them once per cohort per round,
    # so a wrapper frame there costs more than the per-device ``act`` adapter
    # does on the rarely-taken singleton/oracle path.
    def phase_act(self, ctx: PhaseContext):
        """Transmit decision plus observation relevance for one round.

        Listening rounds return ``None`` only when the observation can reach
        state the role actually consumes (a sender's ack/veto rounds, a
        receiver's data/veto rounds, a *conditional* blocker's sensing
        rounds); every other listened round is
        :data:`~repro.core.runtime.OPAQUE_LISTEN` — the 2Bit sub-machines
        discard those observations, so cohort members may perceive different
        marginal activity there without diverging.
        """
        phase = ctx.phase
        if phase == 0:
            self._begin_slot(ctx.slot)
        role = self._role
        if role is _Role.SENDER:
            if self._sender.action(phase):
                return action_spec(FrameKind.DATA_BIT if phase in (0, 2) else FrameKind.VETO)
            return None if phase in (1, 3, 5) else OPAQUE_LISTEN
        if role is _Role.BLOCKER:
            blocker = self._blocker
            if blocker is not None:
                if blocker.action(phase):
                    return action_spec(FrameKind.VETO)
                if not blocker.always and phase < 4:
                    return None
            return OPAQUE_LISTEN
        if role is _Role.RECEIVER:
            receiver = self._active_receiver
            if receiver is not None:
                if receiver.action(phase):
                    return action_spec(FrameKind.ACK if phase in (1, 3) else FrameKind.VETO)
                return None if phase in (0, 2, 4) else OPAQUE_LISTEN
        return OPAQUE_LISTEN

    def phase_observe(self, ctx: PhaseContext, observation: Observation) -> None:
        busy = observation.busy
        phase = ctx.phase
        if self._role is _Role.SENDER:
            self._sender.observe(phase, busy)
        elif self._role is _Role.BLOCKER and self._blocker is not None:
            self._blocker.observe(phase, busy)
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            self._active_receiver.observe(phase, busy)

    def phase_end(self, ctx: PhaseContext) -> None:
        if self._role is _Role.SENDER:
            if self._sender.finish_slot():
                self._cohort_state_dirty = True
        elif self._role is _Role.RECEIVER and self._active_receiver is not None:
            # Signature-relevant state only moves when the exchange accepted a
            # new bit (commits and the outgoing queue are derived from the
            # receiver streams), so that is the re-merge dirty trigger.
            if self._active_receiver.finish_slot() is not None:
                self._cohort_state_dirty = True
            self._update_commits()
        self._role = _Role.IDLE
        self._active_receiver = None
        self._blocker = None

    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        spec = self.phase_act(PhaseContext(slot_cycle, slot, phase))
        if spec is None or spec is OPAQUE_LISTEN:
            return None
        return self._interned_frame(spec.kind)

    def observe(self, slot_cycle: int, slot: int, phase: int, observation: Observation) -> None:
        self.phase_observe(PhaseContext(slot_cycle, slot, phase), observation)

    def end_slot(self, slot_cycle: int, slot: int) -> None:
        self.phase_end(PhaseContext(slot_cycle, slot, END_PHASE))

    def state_signature(self) -> tuple:
        """Slot-boundary state for cohort re-merging.

        Between slots the per-slot role machinery is reset, so the committed
        prefix, the outgoing stream watermark and the per-neighbor receiver
        streams are the complete behaviour-relevant state.  A member that
        missed a bit re-converges with its siblings once the retransmission
        lands, at which point the signatures agree again and the runtime may
        re-merge the split cohorts.  Receiver order is positional: every
        member of a family builds ``_receivers`` by the same deterministic
        setup walk (and clones preserve insertion order), so no sorting is
        needed in this hot helper.
        """
        return (
            tuple(self._committed),
            self._sender.state_signature(),
            tuple(r.state_signature() for r in self._receivers.values()),
        )

    def clone_for_split(self) -> "NeighborWatchNode":
        """Native state copy for cohort splits (mid-slot safe).

        Shares the immutable collaborators (config, schedule, preloaded
        message) and hand-copies the genuinely per-device state; the in-slot
        aliases (``_active_receiver`` pointing into ``_receivers``) are
        re-established against the copies.  ~30x faster than the generic
        ``copy.deepcopy`` fallback, which matters because splits happen
        inside the simulation hot path.
        """
        clone = type(self).__new__(type(self))
        clone.config = self.config
        clone._preloaded = self._preloaded
        clone._committed = list(self._committed)
        clone._sender = self._sender.clone()
        clone._role = self._role
        clone._blocker = None if self._blocker is None else self._blocker.clone()
        clone._sending_active = self._sending_active
        clone._my_slot = self._my_slot
        clone._is_source = self._is_source
        clone._delivered_message = self._delivered_message
        clone._schedule = self._schedule
        clone.context = self.context
        clone._frame_cache = None
        receivers = {}
        active = None
        for slot, receiver in self._receivers.items():
            copy_receiver = receiver.clone()
            receivers[slot] = copy_receiver
            if receiver is self._active_receiver:
                active = copy_receiver
        clone._receivers = receivers
        clone._active_receiver = active
        return clone

    # -- commit logic -------------------------------------------------------------------------
    def _update_commits(self) -> None:
        """Extend the committed prefix according to the (2-)voting rule."""
        k = self.context.message_length
        committed = self._committed
        if len(committed) >= k:
            return
        receivers = self._receivers
        votes_required = self.config.votes_required
        extended = True
        while extended and len(committed) < k:
            extended = False
            index = len(committed)
            votes0 = 0
            votes1 = 0
            source_vote: Optional[int] = None
            for slot, receiver in receivers.items():
                bits = receiver.peek_received()
                if len(bits) <= index:
                    continue
                if bits[:index] != committed:
                    # This neighbor's stream conflicts with what we already
                    # committed; it cannot vouch for the next bit.
                    continue
                value = bits[index]
                if slot == SOURCE_SLOT:
                    source_vote = value
                if value:
                    votes1 += 1
                else:
                    votes0 += 1
            chosen: Optional[int] = None
            if source_vote is not None:
                # Bits received directly from the source are authenticated by
                # Theorem 2 and therefore commit regardless of the vote count.
                chosen = source_vote
            elif votes0 >= votes_required:
                chosen = 0
            elif votes1 >= votes_required:
                chosen = 1
            if chosen is not None:
                committed.append(chosen)
                self._sender.extend((chosen,))
                extended = True

    # -- outcome ----------------------------------------------------------------------------------
    @property
    def committed_bits(self) -> Bits:
        """The prefix of the message this device has committed to so far."""
        return tuple(self._committed)

    @property
    def relayed_count(self) -> int:
        """Number of committed bits already relayed to the neighboring squares."""
        return self._sender.sent_count

    @property
    def delivered(self) -> bool:
        return len(self._committed) >= self.context.message_length

    @property
    def delivered_message(self) -> Optional[Bits]:
        if not self.delivered:
            return None
        if self._delivered_message is None:
            self._delivered_message = tuple(self._committed[: self.context.message_length])
        return self._delivered_message


# -- registry plugins ---------------------------------------------------------------------
@register_protocol("neighborwatch", aliases=("neighborwatchrb", "nw"))
class NeighborWatchPlugin(ProtocolPlugin):
    """Registry plugin wiring NeighborWatchRB into the scenario builder.

    Relaying is square-by-square, so the pipeline hop length entering the
    generous round cap is the square side rather than the radio range.
    """

    votes_required = 1
    protocol_classes = (NeighborWatchNode,)

    def build(self, config) -> NeighborWatchNode:
        return NeighborWatchNode(
            NeighborWatchConfig(votes_required=self.votes_required, idle_veto=config.idle_veto)
        )

    def build_liar(self, config, fake_message) -> NeighborWatchNode:
        liar_config = (
            NeighborWatchConfig(votes_required=self.votes_required)
            if self.votes_required != 1
            else None
        )
        return NeighborWatchNode(config=liar_config, preloaded_message=fake_message)

    def build_schedule(self, deployment, config) -> SquareSchedule:
        grid = SquareGrid(deployment.width, deployment.height, config.effective_square_side())
        return SquareSchedule(
            grid,
            config.radius,
            deployment.positions,
            deployment.source_index,
            separation=config.separation,
        )

    def pipeline_hops(self, config, map_extent: float) -> int:
        return max(1, int(math.ceil(map_extent / config.effective_square_side())))


@register_protocol("neighborwatch2", aliases=("neighborwatch2vote", "nw2", "2vote"))
class NeighborWatch2VotePlugin(NeighborWatchPlugin):
    """The 2-voting variant: same machinery, two distinct vouching squares."""

    votes_required = 2
