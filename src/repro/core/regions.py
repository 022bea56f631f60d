"""Square partition of the plane used by NeighborWatchRB.

NeighborWatchRB clusters devices into axis-aligned squares; all honest devices
in a square behave identically and act as a single "meta-node".  The square
side must be small enough that any two devices in *neighboring* squares (the
eight surrounding squares) can communicate directly:

* in the analytical L-infinity model the paper uses squares of side
  ``ceil(R/2)`` (two diagonal-adjacent squares span at most ``2L <= R`` per
  coordinate);
* in the Euclidean simulation model the paper reduces the side to ``R/3`` so
  that even the diagonal separation ``2*L*sqrt(2)`` stays below ``R``.

This module provides the partition, membership queries and the neighbor
relation between squares, all computed locally from device coordinates exactly
as the paper requires (no communication needed).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

__all__ = ["SquareId", "default_square_side", "SquareGrid"]

#: A square is identified by its integer column/row in the partition.
SquareId = tuple[int, int]


def default_square_side(radius: float, norm: str = "l2") -> float:
    """The paper's square side for a given communication radius and norm.

    ``ceil(R/2)`` in the analytical (L-infinity) model, ``R/3`` in the
    simulation (L2 / Friis) model.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if norm == "linf":
        return float(math.ceil(radius / 2.0))
    if norm == "l2":
        return radius / 3.0
    raise ValueError(f"unknown norm {norm!r}")


@dataclass(frozen=True)
class SquareGrid:
    """Partition of a ``width x height`` map into squares of side ``side``.

    The partition origin is the map origin ``(0, 0)``; square ``(c, r)`` covers
    ``[c*side, (c+1)*side) x [r*side, (r+1)*side)``.  Devices exactly on the
    upper map boundary are folded into the last square so that every device
    belongs to exactly one square.
    """

    width: float
    height: float
    side: float

    def __post_init__(self) -> None:
        if self.side <= 0:
            raise ValueError("square side must be positive")
        if self.width <= 0 or self.height <= 0:
            raise ValueError("map dimensions must be positive")

    @property
    def num_cols(self) -> int:
        return max(1, int(math.ceil(self.width / self.side - 1e-9)))

    @property
    def num_rows(self) -> int:
        return max(1, int(math.ceil(self.height / self.side - 1e-9)))

    @property
    def num_squares(self) -> int:
        return self.num_cols * self.num_rows

    # -- membership ------------------------------------------------------------
    def square_of(self, position: Sequence[float]) -> SquareId:
        """Square containing ``position`` (boundary positions fold inward)."""
        x, y = float(position[0]), float(position[1])
        col = int(math.floor(x / self.side))
        row = int(math.floor(y / self.side))
        col = min(max(col, 0), self.num_cols - 1)
        row = min(max(row, 0), self.num_rows - 1)
        return (col, row)

    def squares_of(self, positions: np.ndarray) -> list[SquareId]:
        """Vectorised :meth:`square_of` for an ``(N, 2)`` position array."""
        pos = np.asarray(positions, dtype=float)
        cols = np.clip(np.floor(pos[:, 0] / self.side).astype(int), 0, self.num_cols - 1)
        rows = np.clip(np.floor(pos[:, 1] / self.side).astype(int), 0, self.num_rows - 1)
        return [(int(c), int(r)) for c, r in zip(cols, rows)]

    def flat_index(self, square: SquareId) -> int:
        """Row-major flat index of a square (used as a compact dictionary key)."""
        col, row = square
        if not (0 <= col < self.num_cols and 0 <= row < self.num_rows):
            raise ValueError(f"square {square} outside the partition")
        return row * self.num_cols + col

    def square_from_flat(self, index: int) -> SquareId:
        if not (0 <= index < self.num_squares):
            raise ValueError("flat index out of range")
        return (index % self.num_cols, index // self.num_cols)

    def center(self, square: SquareId) -> tuple[float, float]:
        """Geometric center of a square (the paper's "meta-node" location)."""
        col, row = square
        return ((col + 0.5) * self.side, (row + 0.5) * self.side)

    # -- neighbor relation -------------------------------------------------------
    def neighbors(self, square: SquareId, *, include_self: bool = False) -> list[SquareId]:
        """The (up to eight) squares adjacent to ``square``.

        Any device in a neighboring square is within communication range of
        any device in ``square`` by the choice of the square side, so these are
        exactly the squares whose broadcasts a member of ``square`` listens to.
        """
        col, row = square
        out: list[SquareId] = []
        for dc in (-1, 0, 1):
            for dr in (-1, 0, 1):
                if dc == 0 and dr == 0 and not include_self:
                    continue
                nc, nr = col + dc, row + dr
                if 0 <= nc < self.num_cols and 0 <= nr < self.num_rows:
                    out.append((nc, nr))
        return out

    def are_neighbors(self, a: SquareId, b: SquareId) -> bool:
        """Whether two distinct squares are adjacent (8-neighborhood)."""
        if a == b:
            return False
        return abs(a[0] - b[0]) <= 1 and abs(a[1] - b[1]) <= 1

    def iter_squares(self) -> Iterator[SquareId]:
        for row in range(self.num_rows):
            for col in range(self.num_cols):
                yield (col, row)

    # -- guarantees ---------------------------------------------------------------
    def max_intra_neighbor_distance(self, norm: str = "l2") -> float:
        """Worst-case distance between devices in neighboring squares.

        Useful for validating that the chosen square side keeps neighboring
        squares within communication range under the given norm (2 squares
        diagonally adjacent span two square sides per coordinate).
        """
        span = 2.0 * self.side
        if norm == "linf":
            return span
        if norm == "l2":
            return span * math.sqrt(2.0)
        raise ValueError(f"unknown norm {norm!r}")

    def validate_for_radius(self, radius: float, norm: str = "l2") -> bool:
        """True when neighboring squares are guaranteed to be in range."""
        return self.max_intra_neighbor_distance(norm) <= radius + 1e-9

    def occupancy(self, positions: np.ndarray) -> dict[SquareId, list[int]]:
        """Map each square to the list of device indices it contains."""
        result: dict[SquareId, list[int]] = {}
        for idx, sq in enumerate(self.squares_of(positions)):
            result.setdefault(sq, []).append(idx)
        return result
