"""Simulated devices.

A :class:`SimNode` ties together a device's identity (index and position), its
role (honest protocol participant, Byzantine adversary, or crashed device) and
its behaviour (a :class:`~repro.core.protocol.Protocol` instance).  Crashed
devices simply have no behaviour: they never transmit, never observe, and are
reported as inactive in the run results.

Under the cohort runtime (:mod:`repro.sim.batch`) several nodes may point at
the *same* protocol instance — the shared state machine of their cohort — and
a node's ``protocol`` is rebound to a clone when its cohort splits.  That is
safe for every consumer here: ``delivered``/``delivered_message`` are
member-independent for NeighborWatchRB, the one protocol it shares, and ``broadcasts`` is maintained
per node by the engine, never by the protocol.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from ..core.messages import Bits
from ..core.protocol import Protocol

__all__ = ["SimNode"]


@dataclass(slots=True)
class SimNode:
    """One device participating in a simulation run.

    Attributes
    ----------
    node_id:
        Index of the device in the deployment.
    position:
        Device coordinates (tuple, so it is cheap to hand to channel models).
    protocol:
        The behaviour driving the device; ``None`` for crashed devices.
    honest:
        Whether the device is honest.  Adversarial devices also carry a
        protocol (their adversarial behaviour), but their outcomes are
        excluded from the delivery metrics.
    broadcasts:
        Number of frames the device put on the air during the run (maintained
        by the engine).
    delivery_round:
        Round count at the end of the slot in which the device delivered the
        message (exact to one slot; ``None`` until delivery).
    """

    node_id: int
    position: tuple[float, float]
    protocol: Optional[Protocol] = None
    honest: bool = True
    broadcasts: int = 0
    delivery_round: Optional[int] = None
    _delivered_cache: bool = field(default=False, repr=False)

    @property
    def active(self) -> bool:
        """Whether the device takes any steps at all (crashed devices do not)."""
        return self.protocol is not None

    @property
    def delivered(self) -> bool:
        """Whether the device has delivered the broadcast message."""
        if self._delivered_cache:
            return True
        if self.protocol is None:
            return False
        if self.protocol.delivered:
            self._delivered_cache = True
            return True
        return False

    @property
    def delivered_message(self) -> Optional[Bits]:
        if self.protocol is None:
            return None
        return self.protocol.delivered_message

    def mark_delivered(self, round_index: int) -> None:
        """Record the first round at which delivery was observed."""
        if self.delivery_round is None:
            self.delivery_round = round_index
