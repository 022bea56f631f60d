"""Spatial region tiling of a deployment for the sparse engine core.

The sparse link-state tier (:mod:`repro.sim.linkstate`) decomposes a
deployment into axis-aligned square tiles — a :class:`~repro.core.regions.SquareGrid`
whose side is the channel's interaction radius, mirroring the paper's own
square decomposition for NeighborWatchRB.  Because the tile side is at least
the interaction radius, a transmission can only ever be audible inside the
sender's own tile and the eight adjacent tiles; every audible link therefore
either stays *interior* to one tile or crosses exactly one tile boundary, and
the per-round CSR kernels only need to "exchange" the boundary-crossing
transmissions between tiles.

:class:`RegionTiling` owns the per-node tile assignment and the static
interior/boundary classification of the CSR link structure; the live
per-round exchange counters accumulate on the link state itself as rounds
resolve.
"""

from __future__ import annotations

import numpy as np

from ..core.regions import SquareGrid

__all__ = ["RegionTiling"]


class RegionTiling:
    """Square-tile partition of a deployment keyed off :class:`SquareGrid`.

    Parameters
    ----------
    positions:
        ``(N, 2)`` device coordinates.
    side:
        Tile side; must be at least the channel's interaction radius for the
        adjacency guarantee above to hold (the caller — the channel building
        its sparse link state — picks it that way).
    """

    __slots__ = ("grid", "side", "tile_of", "num_tiles", "occupied_tiles")

    def __init__(self, positions: np.ndarray, side: float) -> None:
        pos = np.asarray(positions, dtype=float)
        if side <= 0:
            raise ValueError("tile side must be positive")
        # The SquareGrid spans the occupied bounding box from the map origin;
        # positions at the upper edge fold into the last tile, exactly like
        # the NeighborWatchRB square partition.
        width = max(float(pos[:, 0].max()) if pos.size else side, side)
        height = max(float(pos[:, 1].max()) if pos.size else side, side)
        self.side = float(side)
        self.grid = SquareGrid(width=width, height=height, side=self.side)
        self.tile_of = self.grid.flat_squares_of(pos)
        self.tile_of.setflags(write=False)
        self.num_tiles = self.grid.num_squares
        # bincount, not np.unique: unique hashes and, on its first call in a
        # process, imports numpy.ma.
        self.occupied_tiles = int(np.count_nonzero(np.bincount(self.tile_of)))

    def classify_links(self, indptr: np.ndarray, indices: np.ndarray) -> tuple[int, int]:
        """Static ``(interior, boundary)`` link counts of a CSR neighbor structure.

        A link is *interior* when both endpoints share a tile and *boundary*
        when they do not; self-links (the CSR diagonal, kept for parity with
        the dense audibility mask) are excluded from both counts.
        """
        n = indptr.size - 1
        src = np.repeat(np.arange(n, dtype=np.intp), np.diff(indptr))
        if not src.size:
            return 0, 0
        same_tile = self.tile_of[src] == self.tile_of[indices]
        self_link = src == indices
        interior = int(np.count_nonzero(same_tile & ~self_link))
        boundary = int(np.count_nonzero(~same_tile))
        return interior, boundary

    def info(self) -> dict:
        """Snapshot of the static tiling shape."""
        return {
            "tiles": self.num_tiles,
            "occupied_tiles": self.occupied_tiles,
            "tile_side": self.side,
            "grid_cols": self.grid.num_cols,
            "grid_rows": self.grid.num_rows,
        }
