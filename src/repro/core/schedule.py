"""TDMA broadcast schedules.

To prevent contention among honest devices the paper allocates a simple
TDMA-like broadcast schedule in which no two devices within distance ``3R`` of
each other are scheduled in the same slot, each slot being six consecutive
rounds (the "broadcast interval").  The schedule is computed locally from
device locations; the source is always awarded the first broadcast interval.

Two schedule flavours are provided:

* :class:`SquareSchedule` -- used by NeighborWatchRB, where whole squares of
  the :class:`~repro.core.regions.SquareGrid` share a slot (all their honest
  members broadcast identically).  Slots are assigned by colouring squares
  with a ``m x m`` periodic pattern, which reuses slots only between squares
  at least ``separation`` apart and therefore needs only ``O(R^2)`` slots.
* :class:`NodeSchedule` -- used by MultiPathRB and the epidemic baseline,
  where each device has its own slot.  On the analytical grid the same
  periodic-pattern rule applies; for arbitrary random deployments we fall
  back to a deterministic greedy colouring of the conflict graph (a stand-in
  for the paper's location-derived rule, which the paper specifies only for
  grid placements).

Both flavours expose the mapping between rounds and ``(cycle, slot, phase)``
triples and the inverse mapping from slots to their owners, which receivers
use to attribute transmissions to locations ("a node identifies the location
of a message's sender based on the slot in which it was sent").
"""

from __future__ import annotations

import abc
import math
from typing import Sequence

import numpy as np

from ..topology.geometry import as_positions, l2_distance_floats, pairwise_distances
from ..topology.grid import GridBuckets
from .regions import SquareGrid, SquareId

__all__ = [
    "PHASES_PER_SLOT",
    "SOURCE_SLOT",
    "Schedule",
    "SquareSchedule",
    "NodeSchedule",
]

#: Number of rounds in one broadcast interval (the 2Bit-Protocol uses six).
PHASES_PER_SLOT = 6

#: The slot reserved for the broadcast source.
SOURCE_SLOT = 0

#: Deployment size above which :class:`NodeSchedule` derives its conflict and
#: listening neighborhoods from grid-bucketed queries instead of dense
#: ``N x N`` distance matrices.  Both paths filter with the same elementwise
#: distance arithmetic and yield neighbor ids in the same ascending order, so
#: the greedy colouring and the neighbor-slot tables are identical — only the
#: memory (O(N * neighborhood) vs O(N^2)) differs.
BUCKETED_SCHEDULE_MIN_NODES = 2048


class Schedule(abc.ABC):
    """Common round/slot arithmetic for TDMA schedules."""

    def __init__(self, num_slots: int, phases_per_slot: int = PHASES_PER_SLOT) -> None:
        if num_slots < 1:
            raise ValueError("a schedule needs at least one slot")
        if phases_per_slot < 1:
            raise ValueError("phases_per_slot must be >= 1")
        self.num_slots = int(num_slots)
        self.phases_per_slot = int(phases_per_slot)

    # -- round arithmetic -------------------------------------------------------
    @property
    def rounds_per_cycle(self) -> int:
        """Rounds in one full pass over the schedule."""
        return self.num_slots * self.phases_per_slot

    def locate_round(self, round_index: int) -> tuple[int, int, int]:
        """Map a global round index to ``(cycle, slot, phase)``."""
        if round_index < 0:
            raise ValueError("round_index must be non-negative")
        cycle, rem = divmod(round_index, self.rounds_per_cycle)
        slot, phase = divmod(rem, self.phases_per_slot)
        return cycle, slot, phase

    def round_index(self, cycle: int, slot: int, phase: int = 0) -> int:
        """Inverse of :meth:`locate_round`."""
        if not (0 <= slot < self.num_slots):
            raise ValueError("slot out of range")
        if not (0 <= phase < self.phases_per_slot):
            raise ValueError("phase out of range")
        if cycle < 0:
            raise ValueError("cycle must be non-negative")
        return (cycle * self.num_slots + slot) * self.phases_per_slot + phase

    def slots_elapsed(self, round_index: int) -> int:
        """Number of complete slots that finished strictly before ``round_index``."""
        return round_index // self.phases_per_slot

    def iter_slot_starts(self, start_round: int = 0):
        """Yield ``(cycle, slot)`` for consecutive slots, forever.

        This is the engine's replacement for calling :meth:`locate_round` once
        per slot: advancing the generator is a pair of integer operations
        instead of two divmods.  ``start_round`` must be slot-aligned (the
        engine always advances in whole slots).
        """
        cycle, slot, phase = self.locate_round(start_round)
        if phase != 0:
            raise ValueError("start_round must be aligned to a slot boundary")
        num_slots = self.num_slots
        while True:
            yield cycle, slot
            slot += 1
            if slot == num_slots:
                slot = 0
                cycle += 1

    # -- ownership ---------------------------------------------------------------
    @abc.abstractmethod
    def slot_of_node(self, node_id: int) -> int:
        """The broadcast slot of a given device."""

    @abc.abstractmethod
    def owners_of_slot(self, slot: int) -> Sequence[int]:
        """Device indices that broadcast during ``slot`` (spatial reuse allowed)."""


class SquareSchedule(Schedule):
    """Slot assignment for NeighborWatchRB squares.

    Parameters
    ----------
    grid:
        The square partition of the map.
    radius:
        Communication radius ``R``.
    positions:
        Device coordinates, used to resolve per-device slots and occupancy.
    source_index:
        The broadcast source; it always owns :data:`SOURCE_SLOT` regardless of
        its square.
    separation:
        Minimum distance between devices sharing a slot.  Defaults to the
        paper's ``3R``.
    """

    def __init__(
        self,
        grid: SquareGrid,
        radius: float,
        positions: np.ndarray,
        source_index: int,
        *,
        separation: float | None = None,
        phases_per_slot: int = PHASES_PER_SLOT,
    ) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.grid = grid
        self.radius = float(radius)
        self.separation = float(separation) if separation is not None else 3.0 * radius
        self.positions = as_positions(positions)
        self.source_index = int(source_index)
        if not (0 <= self.source_index < self.positions.shape[0]):
            raise ValueError("source_index out of range")
        # Periodic colouring: squares whose column and row agree modulo ``m``
        # share a colour; any two such squares are at least (m-1)*side apart.
        self._pattern = max(1, int(math.ceil(self.separation / grid.side)) + 1)
        num_slots = 1 + self._pattern * self._pattern
        super().__init__(num_slots=num_slots, phases_per_slot=phases_per_slot)

        self._square_of_node: list[SquareId] = grid.squares_of(self.positions)
        self._members: dict[SquareId, list[int]] = {}
        for idx, sq in enumerate(self._square_of_node):
            self._members.setdefault(sq, []).append(idx)
        self._owners_cache: dict[int, tuple[int, ...]] = {}
        self._neighbor_square_slots: dict[SquareId, tuple[int, ...]] = {}

    # -- square-level API ---------------------------------------------------------
    @property
    def pattern_size(self) -> int:
        """Side of the periodic colouring pattern (number of colours = size^2)."""
        return self._pattern

    def slot_of_square(self, square: SquareId) -> int:
        """Slot during which every member of ``square`` broadcasts."""
        col, row = square
        return 1 + (col % self._pattern) * self._pattern + (row % self._pattern)

    def neighbor_square_slots(self, square: SquareId) -> tuple[int, ...]:
        """Distinct slots of the squares around ``square``, its own slot dropped.

        In :meth:`~repro.core.regions.SquareGrid.neighbors` walk order, first
        occurrence kept.  These are a member's receiver slots, the same for
        every member of the square, so each square's walk runs once.
        """
        slots = self._neighbor_square_slots.get(square)
        if slots is None:
            own = self.slot_of_square(square)
            found = dict.fromkeys(self.slot_of_square(nb) for nb in self.grid.neighbors(square))
            found.pop(own, None)
            slots = self._neighbor_square_slots[square] = tuple(found)
        return slots

    def squares_of_slot(self, slot: int) -> list[SquareId]:
        """All squares sharing ``slot`` (they are pairwise at least ``separation`` apart)."""
        if slot == SOURCE_SLOT:
            return []
        if not (1 <= slot < self.num_slots):
            raise ValueError("slot out of range")
        rem = slot - 1
        col_mod, row_mod = divmod(rem, self._pattern)
        out = []
        for sq in self.grid.iter_squares():
            if sq[0] % self._pattern == col_mod and sq[1] % self._pattern == row_mod:
                out.append(sq)
        return out

    def square_of_node(self, node_id: int) -> SquareId:
        return self._square_of_node[node_id]

    def members_of_square(self, square: SquareId) -> list[int]:
        """Device indices located in ``square`` (may be empty)."""
        return list(self._members.get(square, []))

    # -- Schedule interface ---------------------------------------------------------
    def slot_of_node(self, node_id: int) -> int:
        if node_id == self.source_index:
            return SOURCE_SLOT
        return self.slot_of_square(self._square_of_node[node_id])

    def owners_of_slot(self, slot: int) -> tuple[int, ...]:
        if slot in self._owners_cache:
            return self._owners_cache[slot]
        if slot == SOURCE_SLOT:
            owners: tuple[int, ...] = (self.source_index,)
        else:
            ids: list[int] = []
            for sq in self.squares_of_slot(slot):
                ids.extend(i for i in self._members.get(sq, []) if i != self.source_index)
            owners = tuple(sorted(ids))
        self._owners_cache[slot] = owners
        return owners

    def listening_slots_of_node(self, node_id: int) -> list[int]:
        """Slots a NeighborWatchRB device must observe.

        These are the source slot, the device's own square slot and the slots
        of the up-to-eight neighboring squares.
        """
        sq = self._square_of_node[node_id]
        return sorted({SOURCE_SLOT, self.slot_of_square(sq), *self.neighbor_square_slots(sq)})


class NodeSchedule(Schedule):
    """Per-device slot assignment for MultiPathRB and the epidemic baseline.

    Devices whose distance is at most ``separation`` never share a slot, so a
    receiver can unambiguously attribute a slot to a single device within its
    own neighborhood.  Slot 0 is reserved for the source.  The assignment is a
    deterministic greedy colouring of the conflict graph in device-id order,
    which keeps the number of slots within a small factor of the maximum
    conflict degree (itself ``O(R^2 * density)``).
    """

    def __init__(
        self,
        positions: np.ndarray,
        radius: float,
        source_index: int,
        *,
        separation: float | None = None,
        norm: str = "l2",
        phases_per_slot: int = PHASES_PER_SLOT,
    ) -> None:
        if radius <= 0:
            raise ValueError("radius must be positive")
        self.positions = as_positions(positions)
        self.radius = float(radius)
        self.separation = float(separation) if separation is not None else 3.0 * radius
        self.norm = norm
        self.source_index = int(source_index)
        n = self.positions.shape[0]
        if not (0 <= self.source_index < n):
            raise ValueError("source_index out of range")

        slots = np.zeros(n, dtype=int)
        if n > 1:
            # The conflict neighborhoods come from a dense distance matrix on
            # small deployments and from grid-bucketed queries on large ones;
            # both filter with the same elementwise distance arithmetic and
            # list neighbors in ascending id order, so the colouring below is
            # identical either way.
            indptr, indices = self._neighborhoods(self.separation, include_self=False)
            source = self.source_index
            for node in range(n):
                if node == source:
                    slots[node] = SOURCE_SLOT
                    continue
                # Colour greedily against already-coloured conflict neighbors
                # (ids below ours, plus the pre-assigned source).  The mask
                # arithmetic replaces a per-neighbor Python loop but assigns
                # exactly the same slots.
                neighbors = indices[indptr[node] : indptr[node + 1]]
                decided = neighbors[(neighbors < node) | (neighbors == source)]
                used = set(slots[decided].tolist())
                used.add(SOURCE_SLOT)
                slot = 1
                while slot in used:
                    slot += 1
                slots[node] = slot
        self._slots = slots
        num_slots = int(slots.max()) + 1 if n else 1
        super().__init__(num_slots=max(num_slots, 1), phases_per_slot=phases_per_slot)
        grouped: dict[int, list[int]] = {}
        for node in range(n):
            grouped.setdefault(int(slots[node]), []).append(node)
        self._owners = {slot: tuple(ids) for slot, ids in grouped.items()}
        self._neighbor_slot_tables: dict[float, list[list[int]]] = {}
        self._within_memos: dict[float, dict[int, bool]] = {}
        self._position_rows: list | None = None

    def _neighborhoods(
        self, threshold: float, *, include_self: bool
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the neighbors within ``threshold``.

        Row ``i`` (``indices[indptr[i]:indptr[i+1]]``) ascends.  Small
        deployments read the rows off a dense pairwise matrix (the historical
        oracle); at :data:`BUCKETED_SCHEDULE_MIN_NODES` nodes and above they
        come from :meth:`~repro.topology.grid.GridBuckets.neighbor_arrays`
        over cells of the communication radius, for every threshold, without
        materializing anything quadratic.  The distance predicate is the same
        elementwise expression in both paths, so the rows match exactly.
        """
        n = self.positions.shape[0]
        if n >= BUCKETED_SCHEDULE_MIN_NODES:
            buckets = GridBuckets(self.positions, cell_size=self.radius)
            return buckets.neighbor_arrays(threshold, self.norm, include_self=include_self)
        within = pairwise_distances(self.positions, norm=self.norm) <= threshold
        if not include_self:
            np.fill_diagonal(within, False)
        rows, indices = np.nonzero(within)
        return np.searchsorted(rows, np.arange(n + 1)), indices

    # -- Schedule interface ---------------------------------------------------------
    def slot_of_node(self, node_id: int) -> int:
        return int(self._slots[node_id])

    def owners_of_slot(self, slot: int) -> tuple[int, ...]:
        return self._owners.get(slot, tuple())

    def neighbor_slots_of_node(self, node_id: int, listen_radius: float | None = None) -> list[int]:
        """Slots of devices within communication range of ``node_id`` (plus the source slot).

        Every device queries this during protocol setup, so the answers for a
        given radius are computed for all nodes in one pass (dense on small
        deployments, grid-bucketed on large ones — identical sets either way,
        see :meth:`_neighborhoods`) and cached; subsequent calls are a list
        copy.
        """
        r = self.radius if listen_radius is None else listen_radius
        table = self._neighbor_slot_tables.get(r)
        if table is None:
            # One sort of ``node * num_slots + slot`` keys, with the source
            # slot added for every node, gives each node's distinct slots in
            # ascending order.  (np.unique would hash first, ~25x slower.)
            n = self.positions.shape[0]
            indptr, indices = self._neighborhoods(r, include_self=True)
            node_of = np.repeat(np.arange(n), np.diff(indptr))
            keys = np.concatenate(
                [
                    node_of * self.num_slots + self._slots[indices],
                    np.arange(n) * self.num_slots + SOURCE_SLOT,
                ]
            )
            keys.sort()
            keys = keys[np.diff(keys, prepend=-1) != 0]
            bounds = np.searchsorted(keys, np.arange(n + 1) * self.num_slots).tolist()
            node_slots = (keys % self.num_slots).tolist()
            table = [node_slots[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
            self._neighbor_slot_tables[r] = table
        return list(table[node_id])

    def owner_in_neighborhood(self, slot: int, node_id: int, listen_radius: float | None = None) -> int | None:
        """The unique owner of ``slot`` within range of ``node_id``, if any.

        This is how a MultiPathRB receiver resolves "who sent this": the slot
        plus the schedule identify the sender's location, because the schedule
        never reuses a slot within ``separation`` of the listener.
        """
        r = self.radius if listen_radius is None else listen_radius
        candidates = [owner for owner in self.owners_of_slot(slot) if self._distance(owner, node_id) <= r]
        if len(candidates) == 1:
            return candidates[0]
        return None

    def within(self, a: int, b: int, reach: float) -> bool:
        """Whether devices ``a`` and ``b`` are at most ``reach`` apart, memoized per pair.

        Devices never move, so each pair is measured once per ``reach``.  The
        distance expression is symmetric float for float (``x - y`` is
        exactly ``-(y - x)``), so ``(a, b)`` and ``(b, a)`` share one entry.
        """
        memo = self._within_memos.get(reach)
        if memo is None:
            memo = self._within_memos[reach] = {}
        n = self.positions.shape[0]
        key = a * n + b if a <= b else b * n + a
        near = memo.get(key)
        if near is None:
            near = memo[key] = self._distance(a, b) <= reach
        return near

    def _distance(self, a: int, b: int) -> float:
        """Distance between devices ``a`` and ``b`` under the schedule's norm.

        Python floats over the position rows (taken once with ``tolist()``):
        the squared differences summed in index order from ``0.0`` under
        ``math.sqrt``, or the largest absolute difference, are numpy's
        ``sqrt(sum((pa - pb) ** 2))`` and ``max(abs(pa - pb))`` float for
        float at a tenth of the cost of a call on two 2-vectors.
        """
        rows = self._position_rows
        if rows is None:
            rows = self._position_rows = self.positions.tolist()
        if self.norm == "linf":
            return max(abs(x - y) for x, y in zip(rows[a], rows[b]))
        return l2_distance_floats(rows[a], rows[b])
