"""Scenario and fault configuration.

A *scenario* bundles everything that defines a simulation run apart from the
deployment itself: which protocol to run, the radio parameters, the channel
model, the message being broadcast and the run limits.  A *fault plan* lists
which devices misbehave and how.  Both are plain dataclasses so that
experiments can sweep over them declaratively and results remain reproducible
from their configuration alone.

Protocols and channels are referenced by *registry key* (plain strings such
as ``"neighborwatch"`` or ``"friis"``), resolved through the open registries
in :mod:`repro.registry` — not by enum.  Construction canonicalizes aliases
(``"nw2"`` → ``"neighborwatch2"``), so a :class:`ScenarioConfig` always
carries the canonical key; the canonical keys equal the values the retired
``ProtocolName`` / ``ChannelName`` enums carried, which keeps every stored
:meth:`repro.sim.runner.SweepTask.fingerprint` byte-identical across the
registry redesign.  Registering a new protocol or channel plugin makes it
sweepable here with no changes to this module.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace
from typing import Optional, Sequence

from ..core.messages import Bits, validate_bits
from ..registry import CHANNELS, PROTOCOLS

__all__ = [
    "canonical_protocol",
    "canonical_channel",
    "ScenarioConfig",
    "FaultPlan",
    "default_message",
    "dense_link_state_bytes",
]


def canonical_protocol(value: str) -> str:
    """The canonical registry key of a protocol name or alias.

    Raises a :class:`~repro.registry.RegistryError` (a ``KeyError`` *and*
    ``ValueError`` subclass) listing the registered protocols when the key is
    unknown.  Lookup ignores case, ``-`` and ``_``, so the historical aliases
    (``"nw"``, ``"2-vote"``, ``"flooding"``, ...) keep resolving.
    """
    return PROTOCOLS.canonical(value)


def canonical_channel(value: str) -> str:
    """The canonical registry key of a channel name (see :func:`canonical_protocol`)."""
    return CHANNELS.canonical(value)


def dense_link_state_bytes(num_nodes: int, channel: str) -> int:
    """Bytes the dense ``N x N`` link state of ``channel`` would occupy.

    The unit-disk audibility mask is one byte per pair (``bool``), the Friis
    received-power matrix eight (``float64``).  The experiment ``describe``
    command shows it before anything is allocated; above
    :data:`~repro.sim.engine.SPATIAL_TILING_AUTO_NODES` nodes the engine
    keeps the sparse link state instead and never allocates it.
    """
    if num_nodes < 0:
        raise ValueError("num_nodes must be >= 0")
    itemsize = 8 if canonical_channel(channel) == "friis" else 1
    return num_nodes * num_nodes * itemsize


def default_message(length: int) -> Bits:
    """The default application message: an alternating pattern starting with 1.

    The pattern exercises both bit values and both parity phases of the
    1Hop-Protocol; experiments that need a specific message pass their own.
    """
    if length < 1:
        raise ValueError("message length must be >= 1")
    return tuple((i + 1) % 2 for i in range(length))


@dataclass(slots=True)
class ScenarioConfig:
    """Everything that defines a run apart from the deployment and the faults.

    Attributes
    ----------
    protocol:
        Registry key (or alias) of the protocol to run; see
        ``repro.registry.PROTOCOLS.keys()`` for what is available.
    radius:
        Communication radius ``R`` (the paper's experiments use ~3-4 length
        units).
    message_length:
        Number of bits of the application message (4-5 bits in the paper).
    message:
        Explicit message bits; defaults to :func:`default_message`.
    norm:
        ``"l2"`` for geometric deployments (simulation model), ``"linf"`` for
        the analytical grid model.
    channel:
        Registry key of the channel model (``"unitdisk"`` or ``"friis"``
        built-in).
    capture_probability / loss_probability:
        Channel imperfections (see :mod:`repro.sim.radio`).
    square_side:
        Side of the NeighborWatchRB squares; defaults to the paper's choice
        (``R/3`` for l2 deployments, ``ceil(R/2)`` for the analytical model).
    multipath_tolerance:
        The ``t`` parameter MultiPathRB is tuned for.
    schedule_separation:
        Minimum distance between devices sharing a slot (default ``3R``).
    epidemic_separation:
        Slot-sharing separation for the epidemic baseline.  Defaults to the
        same ``3R`` rule as the authenticated protocols so that the
        NeighborWatchRB-vs-epidemic comparison isolates the protocols'
        overhead rather than differences in MAC assumptions; lower it (e.g. to
        ``2R``) to model a more aggressive flooding MAC.
    idle_veto:
        Whether relays veto their own idle intervals, so that an interval in
        which nobody sends is never accepted as a ``(0, 0)`` pair.
    max_rounds:
        Hard cap on the simulated rounds; ``None`` derives a generous bound
        from the deployment size, message length and adversary budgets.
    seed:
        Root seed for all randomness of the run.
    """

    protocol: str = "neighborwatch"
    radius: float = 4.0
    message_length: int = 4
    message: Optional[Sequence[int]] = None
    norm: str = "l2"
    channel: str = "unitdisk"
    capture_probability: float = 0.0
    loss_probability: float = 0.0
    square_side: Optional[float] = None
    multipath_tolerance: int = 3
    schedule_separation: Optional[float] = None
    epidemic_separation: Optional[float] = None
    idle_veto: bool = True
    max_rounds: Optional[int] = None
    seed: int = 0

    def __post_init__(self) -> None:
        self.protocol = canonical_protocol(self.protocol)
        self.channel = canonical_channel(self.channel)
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.message_length < 1:
            raise ValueError("message_length must be >= 1")
        if self.message is not None:
            self.message = validate_bits(self.message)
            if len(self.message) != self.message_length:
                raise ValueError("message length must equal message_length")
        if self.norm not in ("l2", "linf"):
            raise ValueError("norm must be 'l2' or 'linf'")
        if self.multipath_tolerance < 0:
            raise ValueError("multipath_tolerance must be non-negative")
        for name in ("schedule_separation", "epidemic_separation"):
            value = getattr(self, name)
            if value is not None and not (
                isinstance(value, numbers.Real) and math.isfinite(value) and value > 0
            ):
                raise ValueError(f"{name} must be a finite number > 0, got {value!r}")

    # -- derived values -------------------------------------------------------------------
    @property
    def message_bits(self) -> Bits:
        return validate_bits(self.message) if self.message is not None else default_message(self.message_length)

    @property
    def separation(self) -> float:
        if self.schedule_separation is not None:
            return float(self.schedule_separation)
        return 3.0 * self.radius

    @property
    def epidemic_slot_separation(self) -> float:
        if self.epidemic_separation is not None:
            return float(self.epidemic_separation)
        return self.separation

    def protocol_plugin(self):
        """The registered :class:`~repro.registry.ProtocolPlugin` for this scenario."""
        return PROTOCOLS.get(self.protocol)

    def channel_plugin(self):
        """The registered :class:`~repro.registry.ChannelPlugin` for this scenario."""
        return CHANNELS.get(self.channel)

    def effective_square_side(self) -> float:
        if self.square_side is not None:
            if self.square_side <= 0:
                raise ValueError("square_side must be positive")
            return float(self.square_side)
        from ..core.regions import default_square_side

        return default_square_side(self.radius, self.norm)

    def derive_max_rounds(
        self,
        map_extent: float,
        rounds_per_cycle: int,
        adversary_budget: int = 0,
        *,
        bits_per_hop: int = 1,
    ) -> int:
        """A generous round cap: enough cycles for the pipeline plus adversarial delay.

        ``bits_per_hop`` accounts for protocols whose per-hop progress requires
        several 1Hop bits (MultiPathRB streams whole control frames, so one hop
        of progress costs ``frame_bits`` successful slots).  The hop count
        itself comes from the protocol plugin's ``pipeline_hops`` — for
        NeighborWatchRB the effective hop length is the square side rather
        than the radio range.
        """
        if self.max_rounds is not None:
            return int(self.max_rounds)
        hops = self.protocol_plugin().pipeline_hops(self, map_extent)
        # Pipelined delivery needs O(hops + message_length) cycles; multiply by a
        # slack factor and add one cycle per adversarial broadcast (each broadcast
        # can spoil at most one slot).
        cycles = 6 * (hops + self.message_length + 8) * max(1, int(bits_per_hop)) + adversary_budget
        return int(cycles) * int(rounds_per_cycle)

    def with_protocol(self, protocol: str) -> "ScenarioConfig":
        """A copy of this configuration running a different protocol."""
        return replace(self, protocol=canonical_protocol(protocol))


@dataclass(slots=True)
class FaultPlan:
    """Which devices misbehave and how.

    Devices may appear in at most one of the three lists.  The broadcast
    source must stay honest (the problem statement assumes an honest source).
    """

    crashed: tuple[int, ...] = ()
    jammers: tuple[int, ...] = ()
    liars: tuple[int, ...] = ()
    jammer_budget: Optional[int] = None
    jam_probability: float = 0.2
    fake_message: Optional[Sequence[int]] = None

    def __post_init__(self) -> None:
        self.crashed = tuple(sorted(set(int(i) for i in self.crashed)))
        self.jammers = tuple(sorted(set(int(i) for i in self.jammers)))
        self.liars = tuple(sorted(set(int(i) for i in self.liars)))
        overlaps = (set(self.crashed) & set(self.jammers)) | (set(self.crashed) & set(self.liars)) | (
            set(self.jammers) & set(self.liars)
        )
        if overlaps:
            raise ValueError(f"devices assigned multiple fault roles: {sorted(overlaps)}")
        if not (0.0 <= self.jam_probability <= 1.0):
            raise ValueError("jam_probability must be in [0, 1]")
        if self.fake_message is not None:
            self.fake_message = validate_bits(self.fake_message)

    @property
    def faulty(self) -> tuple[int, ...]:
        """All faulty devices (crashed, jamming or lying)."""
        return tuple(sorted(set(self.crashed) | set(self.jammers) | set(self.liars)))

    @property
    def byzantine(self) -> tuple[int, ...]:
        """Devices with Byzantine (non-crash) behaviour."""
        return tuple(sorted(set(self.jammers) | set(self.liars)))

    def total_jam_budget(self) -> int:
        """Total adversarial broadcast budget (0 when unlimited budgets are used)."""
        if self.jammer_budget is None:
            return 0
        return self.jammer_budget * len(self.jammers)

    def validate_for(self, num_nodes: int, source_index: int) -> None:
        """Check the plan against a concrete deployment."""
        for idx in self.faulty:
            if not (0 <= idx < num_nodes):
                raise ValueError(f"faulty device index {idx} out of range")
        if source_index in self.faulty:
            raise ValueError("the broadcast source must remain honest and active")
