"""Geometric primitives used throughout the reproduction.

The paper analyses the protocols on a two-dimensional grid using the L-infinity
norm (a node ``w`` is a neighbor of ``v`` if both coordinate differences are at
most the communication radius ``R``), while the simulations use Euclidean (L2)
distances under a Friis free-space propagation model.  This module provides the
position coercion, the pairwise distance matrix and the neighbourhood
adjacency shared by the analytical and simulated topologies.  Positions are
``(N, 2)`` float arrays.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Point",
    "as_positions",
    "l2_distance_floats",
    "pairwise_distances",
    "neighborhood_matrix",
]


@dataclass(frozen=True, slots=True)
class Point:
    """A 2-D location in the deployment plane.

    The class is intentionally tiny: protocols mostly operate on raw floats or
    NumPy arrays, but a frozen dataclass gives a hashable, readable handle for
    a single device position (e.g. the broadcast source).
    """

    x: float
    y: float

    def as_array(self) -> np.ndarray:
        """Return the point as a ``(2,)`` float array."""
        return np.array([self.x, self.y], dtype=float)

    def linf(self, other: "Point") -> float:
        """L-infinity distance to ``other``."""
        return max(abs(self.x - other.x), abs(self.y - other.y))

    def l2(self, other: "Point") -> float:
        """Euclidean distance to ``other``."""
        return math.hypot(self.x - other.x, self.y - other.y)


def as_positions(points: Iterable[Sequence[float]] | np.ndarray) -> np.ndarray:
    """Coerce an iterable of 2-D coordinates into an ``(N, 2)`` float array.

    Accepts lists of tuples, lists of :class:`Point`, or an existing array.
    Raises ``ValueError`` for inputs that are not two dimensional.
    """
    if isinstance(points, np.ndarray):
        arr = np.asarray(points, dtype=float)
    else:
        rows = []
        for p in points:
            if isinstance(p, Point):
                rows.append((p.x, p.y))
            else:
                rows.append((float(p[0]), float(p[1])))
        arr = np.asarray(rows, dtype=float) if rows else np.empty((0, 2), dtype=float)
    if arr.ndim != 2 or (arr.size and arr.shape[1] != 2):
        raise ValueError(f"positions must have shape (N, 2), got {arr.shape}")
    return arr


def l2_distance_floats(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance of two coordinate rows, in Python floats.

    The squared differences are summed in index order from ``0.0`` under
    ``math.sqrt``: float for float ``np.sqrt(np.sum((a - b) ** 2))`` of the
    same two rows, without numpy's per-call cost on 2-vectors (per-pair
    protocol set-up).
    """
    total = 0.0
    for x, y in zip(a, b):
        d = x - y
        total += d * d
    return math.sqrt(total)


def pairwise_distances(positions: np.ndarray, norm: str = "linf") -> np.ndarray:
    """Full ``(N, N)`` pairwise distance matrix under the requested norm.

    ``norm`` is either ``"linf"`` (analytical model) or ``"l2"`` (simulation
    model).  The computation is fully vectorised; an ``N`` of a few thousand
    nodes fits comfortably in memory (N^2 * 8 bytes).
    """
    pos = as_positions(positions)
    diff = pos[:, None, :] - pos[None, :, :]
    if norm == "linf":
        return np.max(np.abs(diff), axis=-1)
    if norm == "l2":
        return np.sqrt(np.sum(diff**2, axis=-1))
    raise ValueError(f"unknown norm {norm!r}; expected 'linf' or 'l2'")


def neighborhood_matrix(
    positions: np.ndarray, radius: float, norm: str = "linf", include_self: bool = False
) -> np.ndarray:
    """Boolean ``(N, N)`` adjacency matrix of the radio neighborhood graph."""
    dist = pairwise_distances(positions, norm=norm)
    adj = dist <= radius
    if not include_self:
        np.fill_diagonal(adj, False)
    return adj
