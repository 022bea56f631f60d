"""Random deployments used by the simulation experiments.

The paper's evaluation deploys devices on maps of 20x20 to 60x60 length units,
either uniformly at random or in clusters.  The clustered deployment picks a
fixed set of cluster centers, assigns each device to a random cluster and
spreads the devices around their center according to a normal distribution
generated with Marsaglia's polar method (the reference the paper cites is
Knuth's description of that algorithm).  Both generators are reproduced here
with seeded NumPy random generators so that every experiment is reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .geometry import as_positions

__all__ = [
    "Deployment",
    "uniform_deployment",
    "clustered_deployment",
    "grid_jittered_deployment",
    "marsaglia_normal_pairs",
    "density",
]


@dataclass(slots=True)
class Deployment:
    """A concrete placement of devices on a rectangular map.

    Attributes
    ----------
    positions:
        ``(N, 2)`` array of device coordinates.
    width, height:
        Map dimensions in length units.
    source_index:
        Index of the broadcast source device.  The paper places the source at
        the center of the map; generators follow that convention by default.
    metadata:
        Free-form generation parameters kept for provenance (seed, kind, ...).
    """

    positions: np.ndarray
    width: float
    height: float
    source_index: int = 0
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.positions = as_positions(self.positions)
        if self.num_nodes == 0:
            raise ValueError("a deployment must contain at least one device")
        if not (0 <= self.source_index < self.num_nodes):
            raise ValueError("source_index out of range")

    @property
    def num_nodes(self) -> int:
        return int(self.positions.shape[0])

    @property
    def area(self) -> float:
        return float(self.width) * float(self.height)

    @property
    def density(self) -> float:
        """Devices per unit area, the density metric used throughout Section 6."""
        return self.num_nodes / self.area

    def with_source_at_center(self) -> "Deployment":
        """Return a copy whose source is the device closest to the map center."""
        center = np.array([self.width / 2.0, self.height / 2.0])
        d = np.max(np.abs(self.positions - center[None, :]), axis=1)
        idx = int(np.argmin(d))
        return Deployment(
            positions=self.positions,
            width=self.width,
            height=self.height,
            source_index=idx,
            metadata=dict(self.metadata),
        )

    def subset(self, indices: Sequence[int]) -> "Deployment":
        """Deployment restricted to ``indices`` (used by crash experiments)."""
        indices = np.asarray(indices, dtype=int)
        if self.source_index not in set(int(i) for i in indices):
            raise ValueError("subset must retain the source device")
        new_source = int(np.nonzero(indices == self.source_index)[0][0])
        return Deployment(
            positions=self.positions[indices],
            width=self.width,
            height=self.height,
            source_index=new_source,
            metadata={**self.metadata, "subset_of": self.num_nodes},
        )


def density(num_nodes: int, width: float, height: float) -> float:
    """Deployment density: total number of nodes divided by the map area."""
    if width <= 0 or height <= 0:
        raise ValueError("map dimensions must be positive")
    return num_nodes / (width * height)


def uniform_deployment(
    num_nodes: int,
    width: float,
    height: float,
    *,
    rng: np.random.Generator | int | None = None,
    source_at_center: bool = True,
) -> Deployment:
    """Deploy ``num_nodes`` devices uniformly at random on a ``width x height`` map."""
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    gen = np.random.default_rng(rng)
    pos = np.column_stack(
        [gen.uniform(0.0, width, size=num_nodes), gen.uniform(0.0, height, size=num_nodes)]
    )
    dep = Deployment(
        positions=pos,
        width=width,
        height=height,
        source_index=0,
        metadata={"kind": "uniform", "num_nodes": num_nodes},
    )
    return dep.with_source_at_center() if source_at_center else dep


def marsaglia_normal_pairs(n: int, gen: np.random.Generator) -> np.ndarray:
    """Generate ``n`` pairs of independent standard normal variates.

    Implements Marsaglia's polar method directly (rather than calling
    ``gen.normal``) because the paper explicitly cites this algorithm for its
    clustered deployments; the output distribution is of course the same.
    Returns an ``(n, 2)`` array.
    """
    if n < 0:
        raise ValueError("n must be non-negative")
    out = np.empty((n, 2), dtype=float)
    filled = 0
    while filled < n:
        # Draw candidate points in the unit square, keep those inside the unit
        # circle (excluding the origin) and transform them to normals.
        budget = max(2 * (n - filled), 16)
        u = gen.uniform(-1.0, 1.0, size=budget)
        v = gen.uniform(-1.0, 1.0, size=budget)
        s = u * u + v * v
        ok = (s > 0.0) & (s < 1.0)
        u, v, s = u[ok], v[ok], s[ok]
        factor = np.sqrt(-2.0 * np.log(s) / s)
        take = min(len(s), n - filled)
        out[filled : filled + take, 0] = (u * factor)[:take]
        out[filled : filled + take, 1] = (v * factor)[:take]
        filled += take
    return out


def clustered_deployment(
    num_nodes: int,
    width: float,
    height: float,
    *,
    num_clusters: int = 8,
    cluster_std: float | None = None,
    rng: np.random.Generator | int | None = None,
    source_at_center: bool = True,
) -> Deployment:
    """Deploy devices in randomly placed clusters (Section 6.2 of the paper).

    Cluster centers are chosen uniformly at random, each device is assigned to
    a uniformly random cluster, and its offset from the cluster center is a
    2-D normal variate produced by Marsaglia's polar method.  Devices falling
    outside the map are clipped back onto it (mirroring what a real deployment
    on a bounded field would do).
    """
    if num_nodes <= 0:
        raise ValueError("num_nodes must be positive")
    if num_clusters <= 0:
        raise ValueError("num_clusters must be positive")
    gen = np.random.default_rng(rng)
    if cluster_std is None:
        # Spread clusters so that they cover a meaningful fraction of the map
        # without degenerating into a uniform deployment.
        cluster_std = min(width, height) / 8.0
    centers = np.column_stack(
        [gen.uniform(0.0, width, size=num_clusters), gen.uniform(0.0, height, size=num_clusters)]
    )
    assignment = gen.integers(0, num_clusters, size=num_nodes)
    offsets = marsaglia_normal_pairs(num_nodes, gen) * cluster_std
    pos = centers[assignment] + offsets
    pos[:, 0] = np.clip(pos[:, 0], 0.0, width)
    pos[:, 1] = np.clip(pos[:, 1], 0.0, height)
    dep = Deployment(
        positions=pos,
        width=width,
        height=height,
        source_index=0,
        metadata={
            "kind": "clustered",
            "num_nodes": num_nodes,
            "num_clusters": num_clusters,
            "cluster_std": cluster_std,
        },
    )
    return dep.with_source_at_center() if source_at_center else dep


def grid_jittered_deployment(
    width: float,
    height: float,
    spacing: float = 1.0,
    *,
    jitter: float = 0.0,
    rng: np.random.Generator | int | None = None,
    source_at_center: bool = True,
) -> Deployment:
    """Deploy devices on a regular grid, optionally jittered.

    With ``jitter=0`` this reproduces the analytical model's unit grid on a
    bounded map, which is convenient for integration tests that compare the
    simulator against the theory.  A small positive ``jitter`` perturbs each
    device uniformly in ``[-jitter, jitter]^2``.
    """
    if spacing <= 0:
        raise ValueError("spacing must be positive")
    gen = np.random.default_rng(rng)
    xs = np.arange(0.0, width + 1e-9, spacing)
    ys = np.arange(0.0, height + 1e-9, spacing)
    gx, gy = np.meshgrid(xs, ys)
    pos = np.column_stack([gx.ravel(), gy.ravel()])
    if jitter > 0:
        pos = pos + gen.uniform(-jitter, jitter, size=pos.shape)
        pos[:, 0] = np.clip(pos[:, 0], 0.0, width)
        pos[:, 1] = np.clip(pos[:, 1], 0.0, height)
    dep = Deployment(
        positions=pos,
        width=width,
        height=height,
        source_index=0,
        metadata={"kind": "grid", "spacing": spacing, "jitter": jitter},
    )
    return dep.with_source_at_center() if source_at_center else dep
