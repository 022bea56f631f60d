"""Geometric primitives used throughout the reproduction.

The paper analyses the protocols on a two-dimensional grid using the L-infinity
norm (a node ``w`` is a neighbor of ``v`` if both coordinate differences are at
most the communication radius ``R``), while the simulations use Euclidean (L2)
distances under a Friis free-space propagation model.  This module provides the
distance computations, neighborhood queries and bounding helpers shared by the
analytical and simulated topologies.

All bulk operations are vectorised with NumPy: positions are ``(N, 2)`` float
arrays and neighborhood queries return boolean masks or index arrays so that
the simulator never loops over node pairs in Python.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

__all__ = [
    "Point",
    "as_positions",
    "linf_distance",
    "l2_distance",
    "l2_distance_floats",
    "pairwise_distances",
    "neighbors_within",
    "neighborhood_matrix",
    "neighborhood_counts",
    "bounding_box",
    "fits_in_common_neighborhood",
    "linf_diameter_hops",
    "grid_hop_distance",
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


def linf_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """L-infinity distance between broadcast-compatible position arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.max(np.abs(a - b), axis=-1)


def l2_distance(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Euclidean distance between broadcast-compatible position arrays."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.sqrt(np.sum((a - b) ** 2, axis=-1))


def l2_distance_floats(a: Sequence[float], b: Sequence[float]) -> float:
    """Euclidean distance of two coordinate rows, in Python floats.

    The squared differences are summed in index order from ``0.0`` under
    ``math.sqrt``: float for float :func:`l2_distance` of the same two rows,
    without numpy's per-call cost on 2-vectors (per-pair protocol set-up).
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


def neighbors_within(
    positions: np.ndarray,
    center: Sequence[float],
    radius: float,
    norm: str = "linf",
    *,
    strict: bool = False,
) -> np.ndarray:
    """Indices of positions within ``radius`` of ``center`` under ``norm``.

    ``strict`` excludes points exactly at distance ``radius``.  The center
    itself is included if it is one of the positions (callers that need to
    exclude the node itself filter by index).
    """
    pos = as_positions(positions)
    c = np.asarray(center, dtype=float)
    if norm == "linf":
        d = np.max(np.abs(pos - c[None, :]), axis=1)
    elif norm == "l2":
        d = np.sqrt(np.sum((pos - c[None, :]) ** 2, axis=1))
    else:
        raise ValueError(f"unknown norm {norm!r}")
    if strict:
        return np.nonzero(d < radius)[0]
    return np.nonzero(d <= radius)[0]


def neighborhood_matrix(
    positions: np.ndarray, radius: float, norm: str = "linf", include_self: bool = False
) -> np.ndarray:
    """Boolean ``(N, N)`` adjacency matrix of the radio neighborhood graph."""
    dist = pairwise_distances(positions, norm=norm)
    adj = dist <= radius
    if not include_self:
        np.fill_diagonal(adj, False)
    return adj


def neighborhood_counts(positions: np.ndarray, radius: float, norm: str = "linf") -> np.ndarray:
    """Number of neighbors of every node (excluding itself)."""
    return neighborhood_matrix(positions, radius, norm=norm).sum(axis=1)


def bounding_box(positions: np.ndarray) -> tuple[float, float, float, float]:
    """Axis-aligned bounding box ``(xmin, ymin, xmax, ymax)`` of the positions."""
    pos = as_positions(positions)
    if pos.shape[0] == 0:
        return (0.0, 0.0, 0.0, 0.0)
    return (
        float(pos[:, 0].min()),
        float(pos[:, 1].min()),
        float(pos[:, 0].max()),
        float(pos[:, 1].max()),
    )


def fits_in_common_neighborhood(positions: np.ndarray, radius: float) -> bool:
    """Whether all positions lie inside a single L-infinity neighborhood.

    Under the L-infinity norm a set of points fits inside *some* neighborhood
    of radius ``radius`` (an axis-aligned square of side ``2*radius``) exactly
    when the extent of the set in each coordinate is at most ``2*radius``.
    This is the paper's condition on the voters of a MultiPathRB commit in
    the analytical grid model.  The simulated commit rule does not call it:
    it tests only the R-balls centred on the device or on one voter, through
    :meth:`repro.core.schedule.NodeSchedule.within`.
    """
    pos = as_positions(positions)
    if pos.shape[0] == 0:
        return True
    xmin, ymin, xmax, ymax = bounding_box(pos)
    return (xmax - xmin) <= 2 * radius + 1e-9 and (ymax - ymin) <= 2 * radius + 1e-9


def linf_diameter_hops(positions: np.ndarray, radius: float) -> int:
    """Upper bound on the network diameter in hops for the L-infinity model.

    For a well-populated deployment the hop distance between the two most
    distant devices is roughly the L-infinity distance divided by the
    communication radius.  The analytical running-time bound of the paper is
    stated in terms of this diameter ``D``.
    """
    pos = as_positions(positions)
    if pos.shape[0] < 2:
        return 0
    xmin, ymin, xmax, ymax = bounding_box(pos)
    extent = max(xmax - xmin, ymax - ymin)
    if radius <= 0:
        raise ValueError("radius must be positive")
    return int(math.ceil(extent / radius))


def grid_hop_distance(a: Sequence[float], b: Sequence[float], radius: float) -> int:
    """Minimum number of hops between two grid points under the L-infinity model."""
    if radius <= 0:
        raise ValueError("radius must be positive")
    d = max(abs(float(a[0]) - float(b[0])), abs(float(a[1]) - float(b[1])))
    return int(math.ceil(d / radius))
