"""Unit tests for connectivity analysis (repro.topology.connectivity)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology.connectivity import (
    communication_graph,
    connectivity_report,
    hop_counts_from,
    is_connected_to,
    reachable_fraction,
)


@pytest.fixture
def line_positions() -> np.ndarray:
    """Five nodes on a line, 1 unit apart, plus one isolated node."""
    return np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0], [4.0, 0.0], [20.0, 0.0]])


class TestCommunicationGraph:
    def test_edges(self, line_positions):
        graph = communication_graph(line_positions, radius=1.0)
        assert graph.number_of_nodes() == 6
        assert graph.has_edge(0, 1)
        assert not graph.has_edge(0, 2)
        assert graph.degree[5] == 0

    def test_larger_radius_more_edges(self, line_positions):
        g1 = communication_graph(line_positions, radius=1.0)
        g2 = communication_graph(line_positions, radius=2.0)
        assert g2.number_of_edges() > g1.number_of_edges()


class TestHopCounts:
    def test_line_hops(self, line_positions):
        hops = hop_counts_from(line_positions, radius=1.0, source=0)
        assert hops.tolist() == [0, 1, 2, 3, 4, -1]

    def test_unreachable_marked(self, line_positions):
        hops = hop_counts_from(line_positions, radius=1.0, source=5)
        assert hops[5] == 0
        assert (hops[:5] == -1).all()

    def test_source_out_of_range(self, line_positions):
        with pytest.raises(ValueError):
            hop_counts_from(line_positions, radius=1.0, source=99)

    def test_hops_match_networkx(self):
        rng = np.random.default_rng(0)
        pos = rng.uniform(0, 10, size=(60, 2))
        import networkx as nx

        graph = communication_graph(pos, radius=2.5)
        expected = nx.single_source_shortest_path_length(graph, 0)
        hops = hop_counts_from(pos, radius=2.5, source=0)
        for node in range(60):
            if node in expected:
                assert hops[node] == expected[node]
            else:
                assert hops[node] == -1


class TestReachability:
    def test_is_connected_to(self, line_positions):
        mask = is_connected_to(line_positions, radius=1.0, source=0)
        assert mask.tolist() == [True, True, True, True, True, False]

    def test_reachable_fraction(self, line_positions):
        assert reachable_fraction(line_positions, radius=1.0, source=0) == pytest.approx(5 / 6)


class TestConnectivityReport:
    def test_report_fields(self, line_positions):
        report = connectivity_report(line_positions, radius=1.0, source=0)
        assert report.num_nodes == 6
        assert report.num_components == 2
        assert report.largest_component_fraction == pytest.approx(5 / 6)
        assert report.reachable_from_source == pytest.approx(5 / 6)
        assert report.diameter_hops_from_source == 4
        assert report.min_degree == 0

    def test_dominant_threshold(self, line_positions):
        report = connectivity_report(line_positions, radius=1.0, source=0)
        assert not report.is_source_component_dominant(threshold=0.95)
        assert report.is_source_component_dominant(threshold=0.8)

    def test_components_match_networkx(self):
        import networkx as nx

        rng = np.random.default_rng(3)
        for _ in range(40):
            n = int(rng.integers(1, 80))
            pos = rng.uniform(0, float(rng.uniform(1, 30)), size=(n, 2))
            radius = float(rng.uniform(0.3, 5.0))
            report = connectivity_report(pos, radius=radius, source=int(rng.integers(0, n)))
            components = list(nx.connected_components(communication_graph(pos, radius=radius)))
            assert report.num_components == len(components)
            assert report.largest_component_fraction == max(map(len, components)) / n

    def test_fully_connected_grid(self):
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pos = np.column_stack([xs.ravel(), ys.ravel()])
        report = connectivity_report(pos, radius=1.5, source=0)
        assert report.num_components == 1
        assert report.reachable_from_source == 1.0
