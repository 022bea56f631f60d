"""Connectivity analysis of deployments.

Several of the paper's experiments are explained by connectivity arguments:
NeighborWatchRB completes as long as the network remains connected, the
2-voting variant needs every node to have two "independent" feeding squares,
and MultiPathRB needs ``t + 1`` node-disjoint paths within single
neighborhoods.  These helpers compute the relevant graph quantities so the
experiments and tests can check them explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .geometry import neighborhood_matrix

if TYPE_CHECKING:
    import networkx as nx

__all__ = [
    "communication_graph",
    "is_connected_to",
    "reachable_fraction",
    "hop_counts_from",
    "ConnectivityReport",
    "connectivity_report",
]


def communication_graph(positions: np.ndarray, radius: float, norm: str = "l2") -> nx.Graph:
    """Build the radio communication graph as a :class:`networkx.Graph`.

    networkx is imported here rather than at module load: it is needed only
    by callers that want a graph object, not by the simulator.
    """
    import networkx as nx

    adj = neighborhood_matrix(positions, radius, norm=norm)
    graph = nx.Graph()
    graph.add_nodes_from(range(adj.shape[0]))
    edges = np.argwhere(np.triu(adj, k=1))
    graph.add_edges_from((int(a), int(b)) for a, b in edges)
    return graph


def hop_counts_from(
    positions: np.ndarray, radius: float, source: int, norm: str = "l2"
) -> np.ndarray:
    """BFS hop distance from ``source`` to every node (``-1`` if unreachable).

    Implemented directly on the boolean adjacency matrix with NumPy frontier
    expansion, which is considerably faster than generic graph libraries for
    the dense radio graphs the experiments use.
    """
    return _bfs_hops(neighborhood_matrix(positions, radius, norm=norm), source)


def _bfs_hops(adj: np.ndarray, source: int) -> np.ndarray:
    """Frontier BFS over a boolean adjacency matrix (``-1`` if unreachable)."""
    n = adj.shape[0]
    if not (0 <= source < n):
        raise ValueError("source index out of range")
    hops = np.full(n, -1, dtype=int)
    frontier = np.zeros(n, dtype=bool)
    frontier[source] = True
    hops[source] = 0
    level = 0
    visited = frontier.copy()
    while frontier.any():
        level += 1
        nxt = adj[frontier].any(axis=0) & ~visited
        if not nxt.any():
            break
        hops[nxt] = level
        visited |= nxt
        frontier = nxt
    return hops


def is_connected_to(positions: np.ndarray, radius: float, source: int, norm: str = "l2") -> np.ndarray:
    """Boolean mask of nodes reachable from ``source`` in the radio graph."""
    return hop_counts_from(positions, radius, source, norm=norm) >= 0


def reachable_fraction(positions: np.ndarray, radius: float, source: int, norm: str = "l2") -> float:
    """Fraction of devices reachable from the source (including the source)."""
    mask = is_connected_to(positions, radius, source, norm=norm)
    return float(mask.sum()) / mask.shape[0]


@dataclass(frozen=True, slots=True)
class ConnectivityReport:
    """Summary of the connectivity structure of a deployment."""

    num_nodes: int
    num_components: int
    largest_component_fraction: float
    reachable_from_source: float
    mean_degree: float
    min_degree: int
    diameter_hops_from_source: int

    def is_source_component_dominant(self, threshold: float = 0.95) -> bool:
        """Whether (almost) the whole network can hear the source eventually."""
        return self.reachable_from_source >= threshold


def connectivity_report(
    positions: np.ndarray, radius: float, source: int, norm: str = "l2"
) -> ConnectivityReport:
    """Compute a :class:`ConnectivityReport` for a deployment."""
    adj = neighborhood_matrix(positions, radius, norm=norm)
    n = adj.shape[0]
    degrees = adj.sum(axis=1)
    hops = _bfs_hops(adj, source)
    # Components: the source's, then one BFS from each still-unseen node.
    seen = hops >= 0
    sizes = [int(seen.sum())]
    while not seen.all():
        component = _bfs_hops(adj, int(np.argmin(seen))) >= 0
        sizes.append(int(component.sum()))
        seen |= component
    return ConnectivityReport(
        num_nodes=int(n),
        num_components=len(sizes),
        largest_component_fraction=max(sizes) / n,
        reachable_from_source=sizes[0] / n,
        mean_degree=float(degrees.mean()),
        min_degree=int(degrees.min()),
        diameter_hops_from_source=int(hops.max()),
    )
