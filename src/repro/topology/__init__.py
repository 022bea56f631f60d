"""Deployment topologies: analytical grids, random and clustered deployments."""

from .geometry import Point, as_positions, neighborhood_matrix, pairwise_distances
from .grid import GridSpec, GridTopology, grid_index_of, grid_positions
from .deployment import (
    Deployment,
    clustered_deployment,
    density,
    grid_jittered_deployment,
    marsaglia_normal_pairs,
    uniform_deployment,
)
from .connectivity import (
    ConnectivityReport,
    communication_graph,
    connectivity_report,
    hop_counts_from,
    is_connected_to,
    reachable_fraction,
)

__all__ = [
    "Point",
    "as_positions",
    "neighborhood_matrix",
    "pairwise_distances",
    "GridSpec",
    "GridTopology",
    "grid_index_of",
    "grid_positions",
    "Deployment",
    "clustered_deployment",
    "density",
    "grid_jittered_deployment",
    "marsaglia_normal_pairs",
    "uniform_deployment",
    "ConnectivityReport",
    "communication_graph",
    "connectivity_report",
    "hop_counts_from",
    "is_connected_to",
    "reachable_fraction",
]
