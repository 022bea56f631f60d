"""Base class for explicitly adversarial device behaviours.

Byzantine devices come in two flavours in this reproduction, matching the
paper's evaluation:

* *protocol-abusing* devices — the lying devices of Section 6.1 — simply run
  the honest protocol classes preloaded with a fake message (see
  :mod:`repro.adversary.liar`); they need no special machinery.
* *channel-abusing* devices — jammers, spoofers, scripted attackers — do not
  follow the schedule at all.  They derive from :class:`Adversary`, which
  plugs into the simulation engine through the same
  :class:`~repro.core.protocol.Protocol` interface but may transmit during any
  slot (``may_transmit_anywhere``) and never delivers anything.
"""

from __future__ import annotations

from typing import Iterable, Optional

from ..core.messages import Bits
from ..core.protocol import Observation, Protocol
from .budget import BroadcastBudget

__all__ = ["Adversary"]


class Adversary(Protocol):
    """Common behaviour of channel-abusing Byzantine devices."""

    may_transmit_anywhere: bool = True

    def __init__(self, budget: Optional[int] = None) -> None:
        self.budget = BroadcastBudget(budget)

    # Adversaries do not, by default, care about any slot as listeners; the
    # engine consults :meth:`wants_slot` before every slot instead.
    def interests(self) -> Iterable[int]:
        return ()

    def observe(self, slot_cycle: int, slot: int, phase: int, observation: Observation) -> None:
        """Adversaries may inspect the channel; the default ignores it."""

    # -- outcome: adversaries never deliver anything ---------------------------------
    @property
    def delivered(self) -> bool:
        return False

    @property
    def delivered_message(self) -> Optional[Bits]:
        return None

    @property
    def broadcasts_spent(self) -> int:
        """Broadcasts charged against the adversarial budget so far."""
        return self.budget.spent
