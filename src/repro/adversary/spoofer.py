"""Scripted and spoofing adversaries used by the correctness tests.

Theorem 1 and Theorem 2 are adversarial statements: *whatever* a Byzantine
device broadcasts, a receiver never accepts a pair/message the honest sender
did not send, and any disruption costs the adversary budget.  To test them we
need adversaries that can inject arbitrary frames at arbitrary rounds — spoof
a data bit, forge an acknowledgement, suppress nothing (impossible), or jam a
veto round.  :class:`ScriptedAdversary` executes an explicit per-round script;
:class:`BitFlipSpoofer` targets the data rounds of a victim slot to try to
flip the transmitted bits (the classic spoofing attack the 2Bit-Protocol's
acknowledgement/veto structure defends against).
"""

from __future__ import annotations

from typing import Callable, Mapping, Optional

from ..core.messages import Frame, FrameKind
from .base import Adversary

__all__ = ["ScriptedAdversary", "BitFlipSpoofer"]

#: A script maps ``(cycle, slot, phase)`` to the frame kind to broadcast.
Script = Mapping[tuple[int, int, int], FrameKind]


class ScriptedAdversary(Adversary):
    """Broadcast exactly the frames listed in an explicit script.

    The script maps ``(cycle, slot, phase)`` triples to frame kinds; rounds not
    in the script are silent.  A ``predicate`` variant accepts a callable for
    open-ended behaviours (e.g. "jam phase 4 of every slot of cycle 0").
    """

    def __init__(
        self,
        script: Optional[Script] = None,
        *,
        predicate: Optional[Callable[[int, int, int], Optional[FrameKind]]] = None,
        budget: Optional[int] = None,
    ) -> None:
        super().__init__(budget)
        if script is None and predicate is None:
            raise ValueError("provide a script or a predicate")
        self._script = dict(script) if script is not None else {}
        self._predicate = predicate

    def _frame_kind_for(self, cycle: int, slot: int, phase: int) -> Optional[FrameKind]:
        kind = self._script.get((cycle, slot, phase))
        if kind is None and self._predicate is not None:
            kind = self._predicate(cycle, slot, phase)
        return kind

    def wants_slot(self, slot_cycle: int, slot: int) -> bool:
        if self.budget.exhausted:
            return False
        if self._predicate is not None:
            return True
        return any((c, s) == (slot_cycle, slot) for (c, s, _p) in self._script)

    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        kind = self._frame_kind_for(slot_cycle, slot, phase)
        if kind is None:
            return None
        if not self.budget.spend():
            return None
        return Frame(kind, self.context.node_id)


class BitFlipSpoofer(Adversary):
    """Attack a victim slot by broadcasting during its data rounds.

    Broadcasting during round R1/R3 of a slot in which the honest sender stays
    silent makes receivers believe a ``1`` was sent where the sender meant
    ``0`` — the acknowledgement round then disagrees with the sender's view
    and the sender vetoes, so the exchange fails rather than delivering a
    corrupted bit.  This adversary lets the tests exercise exactly that path.
    """

    def __init__(
        self,
        victim_slot: int,
        *,
        phases: tuple[int, ...] = (0, 2),
        budget: Optional[int] = None,
        start_cycle: int = 0,
        end_cycle: Optional[int] = None,
    ) -> None:
        super().__init__(budget)
        self.victim_slot = int(victim_slot)
        self.phases = tuple(int(p) for p in phases)
        self.start_cycle = int(start_cycle)
        self.end_cycle = end_cycle

    def _active(self, cycle: int) -> bool:
        if cycle < self.start_cycle:
            return False
        if self.end_cycle is not None and cycle > self.end_cycle:
            return False
        return True

    def wants_slot(self, slot_cycle: int, slot: int) -> bool:
        return slot == self.victim_slot and self._active(slot_cycle) and not self.budget.exhausted

    def act(self, slot_cycle: int, slot: int, phase: int) -> Optional[Frame]:
        if slot != self.victim_slot or phase not in self.phases or not self._active(slot_cycle):
            return None
        if not self.budget.spend():
            return None
        return Frame(FrameKind.DATA_BIT, self.context.node_id, (1,))
