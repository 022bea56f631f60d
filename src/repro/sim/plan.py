"""Compiled per-slot execution plans for the simulation engine.

The engine's hot loop used to re-derive the same facts every slot of every
cycle: which devices participate, which of them may transmit opportunistically,
where each participant is located, and which submatrix of the channel's link
state the round's listeners need.  All of that is static for a given
simulation, so :class:`SlotPlan` compiles it once at construction:

* **slot records** — per slot, a frozen tuple of per-participant records
  ``(node_id, node, act, observe, end_slot, honest, position)`` with the
  protocol's bound methods resolved ahead of time, so the per-phase loop does
  no attribute lookups;
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
* **submatrix cache** — the ``np.ix_``-style slice of the link state for one
  ``(slot occurrence, sender set)``, LRU-bounded and introspectable exactly
  like the engine's link cache.  In steady state the same slot resolves with
  the same senders every cycle, so the fancy indexing happens once.  With a
  sparse link state the same LRU holds the per-round CSR
  :class:`~repro.sim.linkstate.RoundView` aggregations instead (one entry per
  ``(occurrence, senders)`` either way — the engine uses exactly one of the
  two representations per simulation);
* **region records** — when spatial tiling is enabled, the per-slot
  participant id arrays regrouped per :class:`~repro.sim.tiling.RegionTiling`
  tile (computed lazily, in participant order within each tile), the
  per-region compilation the tiled round kernels and introspection key off;
* **round memo** — for channels whose resolution consumes no RNG
  (:meth:`~repro.sim.radio.Channel.consumes_rng` is ``False``), whole resolved
  rounds keyed by ``(slot occurrence, senders, frames)``.  Observations are a
  pure function of that key, so the engine replays the interned observation
  list instead of resolving at all.  Stochastic configurations never enter
  this cache — their RNG stream must advance exactly as before.

The compiled records bind protocol methods once: the plan assumes (like the
engine always has) that a node's protocol is not swapped mid-run.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Sequence

import numpy as np

from ..core.schedule import Schedule
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
        "round_memo",
        "round_memo_max_entries",
        "round_memo_hits",
        "round_memo_misses",
        "_tx_cache",
        "_node_records",
        "_region_records",
    )

    def __init__(
        self,
        nodes: Sequence[SimNode],
        schedule: Schedule,
        *,
        submatrix_max_entries: int = 256,
        round_memo_max_entries: int = 512,
    ) -> None:
        # One pass over the nodes builds everything: the per-node record with
        # the protocol's bound methods resolved once, and the per-slot record
        # lists (records appended directly, so no second id-to-record pass).
        record_lists: dict[int, list[tuple]] = {}
        flex_transmitters: list[int] = []
        self._node_records: dict[int, tuple] = {}
        wants_slot_by_id: dict[int, object] = {}
        num_slots = schedule.num_slots
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
            self._node_records[node.node_id] = record
            wants_slot_by_id[node.node_id] = proto.wants_slot
            declared: set[int] = set()
            for slot in proto.interests():
                if not (0 <= slot < num_slots):
                    raise ValueError(
                        f"node {node.node_id} declared interest in slot {slot}, "
                        f"but the schedule only has {num_slots} slots"
                    )
                # Deduplicate (order-preserving): a protocol that declares the
                # same slot twice must still act and observe once per phase.
                slot = int(slot)
                if slot in declared:
                    continue
                declared.add(slot)
                slot_list = record_lists.get(slot)
                if slot_list is None:
                    record_lists[slot] = [record]
                else:
                    slot_list.append(record)
            if getattr(proto, "may_transmit_anywhere", False):
                flex_transmitters.append(node.node_id)

        self.slot_records: dict[int, tuple] = {
            slot: tuple(records) for slot, records in record_lists.items()
        }
        self.interest_map: dict[int, tuple[int, ...]] = {
            slot: tuple(record[REC_ID] for record in records)
            for slot, records in self.slot_records.items()
        }
        self.flex_transmitters: tuple[int, ...] = tuple(flex_transmitters)

        # Frozen per-slot participant ids, in record order.  Shared with the
        # spatial-tiling regrouping and the SoA compiler, which adopts each
        # array as its group's member_ids (ascending ids are what make the
        # packed-mask member indexing line up with scalar record order).
        self.participant_arrays: dict[int, np.ndarray] = {}
        for slot, ids in self.interest_map.items():
            array = np.asarray(ids, dtype=np.intp)
            array.setflags(write=False)
            self.participant_arrays[slot] = array

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

        self.round_memo: "OrderedDict[tuple, list]" = OrderedDict()
        self.round_memo_max_entries = int(round_memo_max_entries)
        self.round_memo_hits = 0
        self.round_memo_misses = 0

        self._tx_cache: dict[tuple, Transmission] = {}
        self._region_records: dict[int, dict[int, np.ndarray]] | None = None

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
        """The listeners-by-senders slice of the link state, via the LRU cache.

        ``link_state`` is either a raw dense matrix (historical form, still
        used by tests and ad-hoc callers) or any
        :class:`~repro.sim.linkstate.ChannelLinkState`; sparse states
        recompute the exact block from positions instead of slicing.
        """
        cache = self.submatrix_cache
        sub = cache.get(key)
        if sub is None:
            self.submatrix_misses += 1
            if hasattr(link_state, "submatrix"):
                sub = link_state.submatrix(listeners, senders)
            else:
                sub = link_state[np.ix_(listeners, senders)]
            cache[key] = sub
            while len(cache) > self.submatrix_max_entries:
                cache.popitem(last=False)
        else:
            self.submatrix_hits += 1
            cache.move_to_end(key)
        return sub

    def round_view(self, key: tuple, link_state, listeners, senders):
        """The CSR round aggregation for one ``(occurrence, senders)`` key.

        Shares the submatrix LRU (an engine uses either dense slices or round
        views, never both) and accumulates the link state's tile-exchange
        counters on every resolution, cache hit or miss — a replayed view
        still stands for executed tile traffic.
        """
        cache = self.submatrix_cache
        view = cache.get(key)
        if view is None:
            self.submatrix_misses += 1
            view = link_state.round_view(listeners, senders)
            cache[key] = view
            while len(cache) > self.submatrix_max_entries:
                cache.popitem(last=False)
        else:
            self.submatrix_hits += 1
            cache.move_to_end(key)
        link_state.note_round(view)
        return view

    def region_records(self, tiling) -> dict[int, dict[int, np.ndarray]]:
        """Per-slot participant ids regrouped per region tile (lazy, cached).

        For every slot, a dict mapping each occupied tile of ``tiling`` to the
        ids of the slot's participants located in it, in participant order —
        the per-region compilation of the slot plan.  The grouping is pure
        bookkeeping (participant *execution* order never changes; the RNG
        contract forbids that), consumed by the tiled introspection counters
        and by tests pinning the tiling against the global plan.
        """
        if self._region_records is None:
            grouped: dict[int, dict[int, np.ndarray]] = {}
            tile_of = tiling.tile_of
            for slot, ids in self.participant_arrays.items():
                tiles = tile_of[ids]
                by_tile: dict[int, np.ndarray] = {}
                for tile in np.unique(tiles):
                    members = ids[tiles == tile]
                    members.setflags(write=False)
                    by_tile[int(tile)] = members
                grouped[slot] = by_tile
            self._region_records = grouped
        return self._region_records

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
            "round_memo": {
                "entries": len(self.round_memo),
                "max_entries": self.round_memo_max_entries,
                "hits": self.round_memo_hits,
                "misses": self.round_memo_misses,
            },
            "transmissions_interned": len(self._tx_cache),
        }
