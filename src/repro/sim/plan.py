"""Compiled per-slot execution plans for the simulation engine.

The engine's hot loop used to re-derive the same facts every slot of every
cycle: which devices participate, which of them may transmit opportunistically,
where each participant is located, and which submatrix of the channel's link
state the round's listeners need.  All of that is static for a given
simulation, so :class:`SlotPlan` compiles it once at construction:

* **slot records** — per slot, a frozen tuple of per-participant records
  ``(node_id, node, act, observe, end_slot, honest, position)`` with the
  protocol's bound methods resolved ahead of time, so the per-phase loop does
  no attribute lookups.  Records are grouped per slot by one sort over every
  declared interest;
* **frozen id arrays** — per slot, the participant ids as an immutable NumPy
  array (``writeable=False``), for introspection and vectorised consumers;
* **flex candidates** — per slot, the flexible transmitters (adversaries with
  ``may_transmit_anywhere``) *not already* in the slot's interest set, in
  global declaration order.  The engine queries ``wants_slot`` only for these,
  preserving the exact historical call sequence (and therefore the adversary
  RNG stream) while skipping the per-slot membership scans;
* **transmission interning** — ``Transmission`` objects keyed by
  ``(sender, frame)``; protocols put a tiny alphabet of frames on the air, so
  the same transmission need not be re-allocated every phase;
* **submatrix cache** — the exact ``(listeners, senders)`` block of the link
  state (:func:`~repro.sim.linkstate.link_block`: a slice of the dense
  matrix, or a block the sparse state reads off its CSR or recomputes from
  positions) for one ``(slot occurrence, sender set)``, LRU-bounded and
  introspectable exactly like the engine's link cache.  In steady state the
  same slot resolves with the same senders every cycle, so the block is
  built once.

The compiled records bind protocol methods once: the plan assumes (like the
engine always has) that a node's protocol is not swapped mid-run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..core.schedule import Schedule
from .linkstate import link_block
from .node import SimNode
from .radio import Transmission

__all__ = ["SlotPlan"]

#: Record layout inside :attr:`SlotPlan.slot_records` (documented indices).
REC_ID, REC_NODE, REC_ACT, REC_OBSERVE, REC_END_SLOT, REC_HONEST, REC_POSITION = range(7)

_TX_CACHE_MAX = 8192


class SlotPlan:
    """Static execution structure of one :class:`~repro.sim.engine.Simulation`."""

    __slots__ = (
        "interest_map",
        "flex_transmitters",
        "slot_records",
        "flex_candidates",
        "participant_arrays",
        "submatrix_cache",
        "submatrix_max_entries",
        "submatrix_hits",
        "submatrix_misses",
        "_tx_cache",
        "_node_records",
    )

    def __init__(
        self,
        nodes: Sequence[SimNode],
        schedule: Schedule,
        *,
        submatrix_max_entries: int = 256,
    ) -> None:
        # One interests() call per device; everything per slot then comes
        # from array passes over the concatenated interests.
        records: list[tuple] = []
        declared: list = []
        counts: list[int] = []
        flex_transmitters: list[int] = []
        wants_slot_by_id: dict[int, object] = {}
        for node in nodes:
            proto = node.protocol
            if proto is None:
                continue
            record = (
                node.node_id,
                node,
                proto.act,
                proto.observe,
                proto.end_slot,
                node.honest,
                node.position,
            )
            records.append(record)
            size = len(declared)
            declared.extend(proto.interests())
            counts.append(len(declared) - size)
            if getattr(proto, "may_transmit_anywhere", False):
                flex_transmitters.append(node.node_id)
                wants_slot_by_id[node.node_id] = proto.wants_slot
        self._node_records: dict[int, tuple] = {record[REC_ID]: record for record in records}
        self.flex_transmitters: tuple[int, ...] = tuple(flex_transmitters)

        m = len(records)
        slots = np.asarray(declared, dtype=np.int64)
        num_slots = schedule.num_slots
        bad = (slots < 0) | (slots >= num_slots)
        if bad.any():
            # The first offender in node order, then in declaration order.
            first = int(np.argmax(bad))
            rec = int(np.searchsorted(np.cumsum(counts), first, side="right"))
            raise ValueError(
                f"node {records[rec][REC_ID]} declared interest in slot {declared[first]}, "
                f"but the schedule only has {num_slots} slots"
            )
        # One sort of ``slot * m + record`` keys groups the records per slot
        # in node order; equal keys are a slot declared twice by one device,
        # which must still act and observe once per phase.
        keys = slots * m + np.repeat(np.arange(m), counts)
        keys.sort()
        keys = keys[np.diff(keys, prepend=-1) != 0]
        key_slot, member = np.divmod(keys, m)
        # Slot keys in order of first appearance over (node, declaration).
        first_seen = np.full(num_slots, slots.size)
        np.minimum.at(first_seen, slots, np.arange(slots.size))
        used = np.flatnonzero(first_seen < slots.size)
        in_order = used[np.argsort(first_seen[used])]
        starts = np.searchsorted(key_slot, in_order).tolist()
        ends = np.searchsorted(key_slot, in_order, side="right").tolist()

        # Frozen per-slot participant ids, in record order.  Shared with the
        # SoA compiler, which adopts each array as its group's member_ids
        # (ascending ids are what make the packed-mask member indexing line
        # up with scalar record order).  The tuples hold the records' own
        # objects, ids included, so no int is allocated per participant.
        record_objects = np.fromiter(records, dtype=object, count=m)
        id_objects = np.fromiter((record[REC_ID] for record in records), dtype=object, count=m)
        member_ids = id_objects.astype(np.intp)[member]
        member_ids.setflags(write=False)
        self.slot_records: dict[int, tuple] = {}
        self.interest_map: dict[int, tuple[int, ...]] = {}
        self.participant_arrays: dict[int, np.ndarray] = {}
        for slot, lo, hi in zip(in_order.tolist(), starts, ends):
            self.slot_records[slot] = tuple(record_objects[member[lo:hi]].tolist())
            self.interest_map[slot] = tuple(id_objects[member[lo:hi]].tolist())
            self.participant_arrays[slot] = member_ids[lo:hi]

        # Flex candidates per slot: flexible transmitters outside the slot's
        # interest set, in declaration order — the same subsequence the engine
        # used to recompute per slot, so adversary wants_slot() calls (which
        # may consume their private RNG) happen in exactly the same order.
        self.flex_candidates: dict[int, tuple] = {}
        if self.flex_transmitters:
            interest_sets = {slot: frozenset(ids) for slot, ids in self.interest_map.items()}
            for slot in range(schedule.num_slots):
                base = interest_sets.get(slot, frozenset())
                candidates = tuple(
                    (wants_slot_by_id[nid], self._node_records[nid])
                    for nid in self.flex_transmitters
                    if nid not in base
                )
                if candidates:
                    self.flex_candidates[slot] = candidates

        self.submatrix_cache: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
        self.submatrix_max_entries = int(submatrix_max_entries)
        self.submatrix_hits = 0
        self.submatrix_misses = 0

        self._tx_cache: dict[tuple, Transmission] = {}

    # -- hot-path helpers ------------------------------------------------------------
    def node_record(self, node_id: int) -> tuple:
        """The compiled record of one device (participants and flex joiners)."""
        return self._node_records[node_id]

    def compile_cohort_entries(self, cohort_of: dict) -> dict:
        """Per-slot execution entries for the cohort runtime.

        For every slot, a list of mutable ``[record, cohort, spec, tx]``
        entries in the exact participant order of :attr:`slot_records`
        (``cohort`` is ``None`` for singleton devices; the trailing two
        elements memoise the member's last fan-out transmission per shared
        decision).  The entry *objects* are what the runtime tracks
        incrementally: a record participating in several slots gets one entry
        per slot, and when a cohort splits or re-merges the runtime rewrites
        the ``cohort`` element of the affected entries in place — the
        per-slot membership therefore never needs to be re-derived during a
        run.
        """
        return {
            slot: [[record, cohort_of.get(record[REC_ID]), None, None] for record in records]
            for slot, records in self.slot_records.items()
        }

    def transmission(self, node_id: int, position, frame) -> Transmission:
        """Interned ``Transmission`` for a sender/frame pair."""
        key = (node_id, frame)
        cache = self._tx_cache
        tx = cache.get(key)
        if tx is None:
            if len(cache) >= _TX_CACHE_MAX:
                cache.clear()
            tx = Transmission(node_id, position, frame)
            cache[key] = tx
        return tx

    def submatrix(self, key: tuple, link_state, listeners, senders) -> np.ndarray:
        """The exact listeners-by-senders block of the link state, via the LRU cache.

        ``link_state`` is the dense matrix or a
        :class:`~repro.sim.linkstate.SparseLinkState`
        (:func:`~repro.sim.linkstate.link_block`).
        """
        cache = self.submatrix_cache
        sub = cache.get(key)
        if sub is None:
            self.submatrix_misses += 1
            sub = link_block(link_state, listeners, senders)
            cache[key] = sub
            while len(cache) > self.submatrix_max_entries:
                cache.popitem(last=False)
        else:
            self.submatrix_hits += 1
            cache.move_to_end(key)
        return sub

    # -- introspection ----------------------------------------------------------------
    def cache_info(self) -> dict:
        """Snapshot of the plan's per-simulation caches (counters since construction)."""
        return {
            "submatrix": {
                "entries": len(self.submatrix_cache),
                "max_entries": self.submatrix_max_entries,
                "hits": self.submatrix_hits,
                "misses": self.submatrix_misses,
            },
            "transmissions_interned": len(self._tx_cache),
        }
