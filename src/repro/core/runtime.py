"""Phase-machine protocol runtime: the typed contract behind cohort execution.

The simulation engine drives every device through a per-device object
protocol — ``act(cycle, slot, phase)`` returning a ready-made
:class:`~repro.core.messages.Frame` and ``observe(...)`` consuming a channel
observation.  That interface is per-device by construction: the returned frame
embeds the device id, so two devices in identical protocol states still cannot
share a single state-machine evaluation.

This module makes the state machine explicit.  A protocol that participates in
shared (cohort) execution implements three *phase transitions* over a typed
:class:`PhaseContext`:

``phase_act(ctx) -> Optional[ActionSpec]``
    The transmit decision for one round.  Crucially the result is a
    *member-independent* :class:`ActionSpec` — a frame kind plus payload,
    without a sender id — so one evaluation can be fanned out to every member
    of a cohort (each member materialises its own on-air frame).
``phase_observe(ctx, observation)``
    Deliver the channel observation of a listened round.
``phase_end(ctx)``
    Finalise the per-slot state machine (``ctx.phase`` is :data:`END_PHASE`).

The shareability contract
-------------------------
NeighborWatchRB is the one protocol that declares itself ``shareable = True``:
the honest devices of one square are the paper's meta-node.  MultiPathRB and
the epidemic flood give each device its own slot, so no two of their devices
could ever share a machine, and they stay unshareable.  A shareable protocol's
transitions are pure functions of ``(state, observations)`` that

* consume **no randomness** (sharing one evaluation across members must not
  move any RNG stream — bit-identity is a hard contract, see ROADMAP), and
* depend on the device identity **only at setup time**, and
* group correctly: :meth:`~repro.core.protocol.Protocol.cohort_key` must
  capture *everything* that distinguishes the device's post-setup state,
  including its interest set — two devices mapping to the same key must be
  byte-for-byte interchangeable state machines.

The class implements the three ``phase_*`` transitions, overrides
:meth:`~repro.core.protocol.Protocol.cohort_key`,
:meth:`~repro.core.protocol.Protocol.clone_for_split` and
:meth:`~repro.core.protocol.Protocol.state_signature`, and names its
observation projection in
:attr:`~repro.core.protocol.Protocol.shared_observation_attr`; the protocol
registry rejects a shareable class that misses any of them.  Divergence is
handled by cloning: when two cohort members observe different projected
things, the shared machine is copied per observation class with
``clone_for_split`` and execution continues on the finer partition.

The SoA lowering contract
-------------------------
The third execution tier (:mod:`repro.sim.soa`) goes one step beyond sharing:
for *simple* phase machines it compiles each slot's participants into packed
per-group state masks and replays the slot with a handful of bitwise
operations instead of per-device (or per-cohort) ``phase_act`` /
``phase_observe`` calls.  A protocol family opts in by declaring
``soa_compilable = True`` and implementing
:meth:`~repro.core.protocol.Protocol.soa_state_spec` (the stream protocols)
or ``soa_node_spec`` (the epidemic flood), and may do so only when

* its transitions consume **no randomness** and read **nothing** of an
  observation beyond channel activity (``busy``, for the bit-exchange
  stack) or — for payload protocols such as the epidemic flood — the
  decoded frame of an uncontended round, and
* a slot's evolution is a *closed function* of the group's state: every
  device whose state the slot can change declares the slot in its interest
  set, so the compiler sees the full support of the transition, and
* the slot kernel mutates the **same protocol objects** the scalar path
  would: SoA keeps no shadow state beyond per-slot role masks that are
  recomputable from the objects, which is what lets any slot occurrence fall
  back to the scalar loop (adversary extras, flex transmitters) and resume
  compiled execution afterwards.

Bit-identity remains the hard contract: record order, RNG draw order (the
tier is only eligible on channel configurations that consume no RNG) and
every exported row must match the per-device oracle byte for byte.
"""

from __future__ import annotations

from typing import NamedTuple

from .messages import FrameKind

__all__ = [
    "END_PHASE",
    "OPAQUE_LISTEN",
    "PhaseContext",
    "ActionSpec",
]

#: Sentinel phase used for the end-of-slot transition (:meth:`phase_end`).
END_PHASE = -1


class _OpaqueListen:
    """Singleton tag for 'listen, but the observation cannot change my state'."""

    __slots__ = ()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "OPAQUE_LISTEN"


#: Returned by ``phase_act`` instead of ``None`` when the device listens but
#: its state machine provably discards this round's observation (a 2Bit
#: sender during data rounds, a receiver during ack rounds, an uncondition­al
#: blocker, an idle machine).  The engine still resolves the round for the
#: device — listener sets, and therefore the channel RNG stream, are
#: bit-identical to the per-device path — but the cohort runtime neither
#: delivers the observation nor splits the cohort when members diverge in
#: such a round, which is what keeps meta-node sharing intact on channels
#: where far-away co-slot transmitters bleed marginal power across the map.
#: Declaring a round opaque that the transitions actually read breaks
#: bit-identity — the oracle-equivalence suite is the enforcement.
OPAQUE_LISTEN = _OpaqueListen()


class PhaseContext(NamedTuple):
    """Typed context of one phase transition.

    ``slot_cycle`` and ``slot`` locate the broadcast interval in the global
    TDMA schedule; ``phase`` is the 0-based round within the slot, or
    :data:`END_PHASE` for the end-of-slot transition.  The cohort runtime
    allocates one context per phase and shares it across every cohort in the
    slot, so transitions must treat it as immutable.  (A NamedTuple rather
    than a frozen dataclass: contexts are built once per device-round on the
    per-device path, and tuple construction is several times cheaper than a
    frozen dataclass's ``object.__setattr__`` init.)
    """

    slot_cycle: int
    slot: int
    phase: int


class ActionSpec(NamedTuple):
    """A member-independent transmit decision: frame kind plus payload.

    Deliberately excludes the sender id — the cohort runtime turns a spec
    into a concrete :class:`~repro.core.messages.Frame` per member, so one
    shared evaluation serves a whole cohort.  Specs for the payload-less
    protocol alphabet are interned via :func:`action_spec`.
    """

    kind: FrameKind
    payload: tuple = ()


#: Interned payload-less specs, one per frame kind (the whole alphabet of the
#: bit-exchange protocols); avoids a per-round allocation in phase_act.
_BARE_SPECS: dict[FrameKind, ActionSpec] = {kind: ActionSpec(kind) for kind in FrameKind}


def action_spec(kind: FrameKind, payload: tuple = ()) -> ActionSpec:
    """The (interned, when payload-less) spec for ``kind``/``payload``."""
    if not payload:
        return _BARE_SPECS[kind]
    return ActionSpec(kind, payload)
