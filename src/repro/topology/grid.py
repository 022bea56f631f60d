"""Grid deployments and grid-bucketed neighbour graphs.

The paper's running-time analysis places one device at every integer grid
point of an ``width x height`` rectangle and measures communication in the
L-infinity norm.  These helpers build that topology (optionally sub-sampled)
and compute the quantities the analysis refers to (diameter, neighborhood
size, maximum tolerable number of Byzantine devices).

:class:`GridBuckets` is the scale-enabling piece: a spatial hash of an
``(N, 2)`` position array into square cells, building CSR neighbor
structures without ever touching an ``N x N`` matrix.  Its results are
*exact* — candidate pairs are over-collected from surrounding cells and then
filtered with the very same elementwise distance expressions the dense code
paths use, so the returned neighbor sets (and therefore everything built on
top of them: link states and schedules) are bit-identical to the
brute-force computation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["GridSpec", "grid_positions", "grid_index_of", "GridTopology", "GridBuckets"]


@dataclass(frozen=True, slots=True)
class GridSpec:
    """Specification of an analytical unit grid.

    Attributes
    ----------
    width, height:
        Number of grid points along each axis (so coordinates run from 0 to
        ``width - 1`` / ``height - 1``).
    spacing:
        Distance between adjacent grid points.  The paper uses unit spacing.
    """

    width: int
    height: int
    spacing: float = 1.0

    def __post_init__(self) -> None:
        if self.width <= 0 or self.height <= 0:
            raise ValueError("grid dimensions must be positive")
        if self.spacing <= 0:
            raise ValueError("grid spacing must be positive")

    @property
    def num_points(self) -> int:
        return self.width * self.height

    @property
    def extent(self) -> tuple[float, float]:
        """Physical extent of the grid along each axis."""
        return ((self.width - 1) * self.spacing, (self.height - 1) * self.spacing)


def grid_positions(spec: GridSpec) -> np.ndarray:
    """Return the ``(width*height, 2)`` array of grid point coordinates.

    Points are ordered row-major: index ``i`` corresponds to
    ``(i % width, i // width)`` scaled by ``spacing``.
    """
    xs = np.arange(spec.width, dtype=float) * spec.spacing
    ys = np.arange(spec.height, dtype=float) * spec.spacing
    gx, gy = np.meshgrid(xs, ys)
    return np.column_stack([gx.ravel(), gy.ravel()])


def grid_index_of(spec: GridSpec, x: int, y: int) -> int:
    """Index into :func:`grid_positions` of the grid point ``(x, y)``."""
    if not (0 <= x < spec.width and 0 <= y < spec.height):
        raise ValueError(f"grid point ({x}, {y}) outside {spec.width}x{spec.height} grid")
    return y * spec.width + x


@dataclass(slots=True)
class GridTopology:
    """A fully materialised analytical grid topology.

    Combines the grid specification with the communication radius ``R`` and
    exposes the derived quantities used by the paper's theorems:

    * ``neighborhood_size`` -- ``(2R+1)^2 - 1`` devices per neighborhood,
    * ``max_tolerable_t`` -- Koo's bound ``t < R(2R+1)/2``,
    * ``diameter_hops`` -- the hop diameter ``D`` used in Theorem 5.
    """

    spec: GridSpec
    radius: float
    positions: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.radius <= 0:
            raise ValueError("communication radius must be positive")
        self.positions = grid_positions(self.spec)

    @property
    def num_nodes(self) -> int:
        return self.spec.num_points

    @property
    def radius_in_cells(self) -> int:
        """Communication radius expressed in grid cells (rounded down)."""
        return int(math.floor(self.radius / self.spec.spacing + 1e-9))

    @property
    def neighborhood_size(self) -> int:
        """Number of other grid points inside one L-infinity neighborhood."""
        r = self.radius_in_cells
        return (2 * r + 1) ** 2 - 1

    @property
    def max_tolerable_t(self) -> int:
        """Largest ``t`` satisfying Koo's bound ``t < R(2R+1)/2`` (strictly)."""
        r = self.radius_in_cells
        bound = 0.5 * r * (2 * r + 1)
        t = int(math.ceil(bound)) - 1
        return max(t, 0)

    @property
    def neighborwatch_tolerable_t(self) -> int:
        """Largest ``t`` tolerated by NeighborWatchRB: ``t < ceil(R/2)^2``."""
        r = self.radius_in_cells
        return max(int(math.ceil(r / 2)) ** 2 - 1, 0)

    @property
    def diameter_hops(self) -> int:
        """Hop diameter of the grid under the L-infinity communication model."""
        ex, ey = self.spec.extent
        return int(math.ceil(max(ex, ey) / self.radius))

    def index_of(self, x: int, y: int) -> int:
        return grid_index_of(self.spec, x, y)

    def center_index(self) -> int:
        """Index of the grid point closest to the geometric center."""
        return self.index_of(self.spec.width // 2, self.spec.height // 2)


class GridBuckets:
    """Spatial hash of positions into square cells for exact neighbour graphs.

    Parameters
    ----------
    positions:
        ``(N, 2)`` float array of device coordinates.
    cell_size:
        Side of the hash cells.  Any positive value is correct; only the
        constant factor moves.  :meth:`neighbor_arrays` does one array pass
        per cell offset, so cells of the communication radius serve every
        threshold from ``R`` to ``3R`` with a few nodes per cell.

    :meth:`neighbor_arrays` returns neighbor sets identical to the
    brute-force dense computation: candidate cells are taken with one extra
    ring beyond ``ceil(threshold / cell_size)`` (insurance against boundary
    rounding) and candidates are filtered with the same elementwise
    arithmetic as the dense paths.
    """

    __slots__ = ("positions", "cell_size", "_cell_of")

    def __init__(self, positions: np.ndarray, cell_size: float) -> None:
        if cell_size <= 0:
            raise ValueError("cell_size must be positive")
        pos = np.asarray(positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 2:
            raise ValueError(f"positions must have shape (N, 2), got {pos.shape}")
        self.positions = pos
        self.cell_size = float(cell_size)
        cols = np.floor(pos[:, 0] / self.cell_size).astype(np.int64)
        rows = np.floor(pos[:, 1] / self.cell_size).astype(np.int64)
        self._cell_of = np.stack([cols, rows], axis=1)

    def _sorted_by_cell(self, margin: int) -> tuple[np.ndarray, np.ndarray, int]:
        """``(order, sorted keys, span)`` of the nodes sorted by flat cell key.

        The key of cell ``(col, row)`` is ``col * span + row`` up to a constant,
        with ``margin`` spare rows above and below the occupied ones, so the
        cell ``(dc, dr)`` away from an occupied cell has key
        ``key + dc * span + dr`` for every ``|dr| <= margin``.  The sort is
        stable, so ids ascend within each cell.
        """
        cols, rows = self._cell_of[:, 0], self._cell_of[:, 1]
        low = rows.min() - margin
        span = int(rows.max() - low) + 1 + margin
        keys = (cols - cols.min()) * span + (rows - low)
        order = np.argsort(keys, kind="stable")
        return order, keys[order], span

    def _reach(self, threshold: float) -> int:
        # One extra ring beyond the geometric bound: a pair excluded by the
        # window then has per-coordinate separation strictly greater than
        # threshold + cell_size, far outside any floating-point rounding of
        # the distance predicate.
        return int(math.ceil(threshold / self.cell_size)) + 1

    def neighbor_arrays(
        self, threshold: float, norm: str = "l2", *, include_self: bool = True
    ) -> tuple[np.ndarray, np.ndarray]:
        """CSR ``(indptr, indices)`` of the radius-``threshold`` neighbor graph.

        Row ``i`` of the structure (``indices[indptr[i]:indptr[i+1]]``, always
        ascending) lists exactly the ids the dense predicate
        ``distance(i, j) <= threshold`` accepts.  It is built in array passes,
        never one per node or cell: the nodes are sorted by cell once, then
        one pass per cell offset ``(dc, dr)`` pairs every node with each node
        of the cell that far from its own (found by ``searchsorted`` over the
        occupied cell keys) and keeps the pairs the predicate accepts, and
        one sort of the accepted ``i * N + j`` keys orders the rows.  Peak
        memory is ``O(N * neighborhood)``, never ``O(N^2)``.

        The distances are the dense expressions written per coordinate:
        ``sqrt(dx*dx + dy*dy)`` is ``sqrt(sum(diff**2, axis=-1))`` and
        ``maximum(abs(dx), abs(dy))`` is ``max(abs(diff), axis=-1)``, float
        for float.  Both are symmetric bit for bit (``x - y`` is exactly
        ``-(y - x)``), so only half of the offsets are scanned and each pair
        found at ``(dc, dr)`` also yields its mirror at ``(-dc, -dr)``.
        Offsets whose cells are at least ``threshold + cell_size`` apart are
        skipped: the extra ring of :meth:`_reach` is the insurance.
        """
        if norm not in ("l2", "linf"):
            raise ValueError(f"unknown norm {norm!r}; expected 'linf' or 'l2'")
        n = self.positions.shape[0]
        if n == 0:
            return np.zeros(1, dtype=np.int64), np.empty(0, dtype=np.intp)
        reach = self._reach(threshold)
        order, sorted_keys, span = self._sorted_by_cell(max(reach, 0))
        first = np.flatnonzero(np.diff(sorted_keys, prepend=sorted_keys[0] - 1))
        cell_keys = sorted_keys[first]
        cell_count = np.diff(first, append=n)
        cell_of = np.repeat(np.arange(first.size), cell_count)
        xs = self.positions[order, 0]
        ys = self.positions[order, 1]
        node = np.arange(n)
        cell = self.cell_size
        chunks = []
        for dc in range(0, reach + 1):
            gap_c = max(dc - 1, 0) * cell
            for dr in range(-reach if dc else 0, reach + 1):
                gap_r = max(abs(dr) - 1, 0) * cell
                gap = max(gap_c, gap_r) if norm == "linf" else math.hypot(gap_c, gap_r)
                if gap >= threshold + cell:
                    continue
                # The cell (dc, dr) away from each occupied cell, if occupied.
                target = cell_keys + (dc * span + dr)
                at = np.minimum(np.searchsorted(cell_keys, target), first.size - 1)
                found = cell_keys[at] == target
                count = np.where(found, cell_count[at], 0)[cell_of]
                total = int(count.sum())
                if not total:
                    continue
                # Candidate pairs (src, dst), as positions in the sorted
                # order: each node against every node of its target cell.
                start = first[at][cell_of] - (np.cumsum(count) - count)
                src = np.repeat(node, count)
                dst = np.arange(total) + np.repeat(start, count)
                dx = xs[src] - xs[dst]
                dy = ys[src] - ys[dst]
                if norm == "linf":
                    dist = np.maximum(np.abs(dx), np.abs(dy))
                else:
                    dist = np.sqrt(dx * dx + dy * dy)
                keep = dist <= threshold
                if not include_self and dc == 0 and dr == 0:
                    keep &= src != dst
                i = order[src[keep]]
                j = order[dst[keep]]
                chunks.append(i * n + j)
                if dc or dr:
                    chunks.append(j * n + i)
        pairs = np.concatenate(chunks) if chunks else np.empty(0, dtype=np.intp)
        pairs.sort()
        indptr = np.searchsorted(pairs, np.arange(n + 1) * n)
        np.remainder(pairs, n, out=pairs)
        return indptr, pairs
