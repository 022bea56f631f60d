"""Unit tests for repro.topology.geometry."""

from __future__ import annotations

import numpy as np
import pytest

from repro.topology import geometry as geo


class TestPoint:
    def test_linf_distance(self):
        a = geo.Point(0.0, 0.0)
        b = geo.Point(3.0, -4.0)
        assert a.linf(b) == pytest.approx(4.0)

    def test_l2_distance(self):
        a = geo.Point(0.0, 0.0)
        b = geo.Point(3.0, -4.0)
        assert a.l2(b) == pytest.approx(5.0)

    def test_as_array(self):
        arr = geo.Point(1.5, 2.5).as_array()
        assert arr.shape == (2,)
        assert arr.tolist() == [1.5, 2.5]

    def test_point_is_hashable(self):
        assert len({geo.Point(1, 2), geo.Point(1, 2), geo.Point(2, 1)}) == 2


class TestAsPositions:
    def test_accepts_list_of_tuples(self):
        pos = geo.as_positions([(0, 0), (1, 2)])
        assert pos.shape == (2, 2)

    def test_accepts_points(self):
        pos = geo.as_positions([geo.Point(0, 0), geo.Point(3, 4)])
        assert pos[1, 1] == 4.0

    def test_accepts_empty(self):
        assert geo.as_positions([]).shape == (0, 2)

    def test_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            geo.as_positions(np.zeros((3, 3)))

    def test_passthrough_array_is_float(self):
        pos = geo.as_positions(np.array([[1, 2], [3, 4]], dtype=int))
        assert pos.dtype == float


class TestPairwiseDistances:
    def test_linf_matrix(self):
        pos = [(0, 0), (1, 3), (2, 1)]
        dist = geo.pairwise_distances(pos, norm="linf")
        assert dist[0, 1] == pytest.approx(3.0)
        assert dist[1, 2] == pytest.approx(2.0)
        assert np.allclose(np.diag(dist), 0.0)

    def test_l2_matrix_symmetry(self):
        pos = np.random.default_rng(0).uniform(0, 10, size=(20, 2))
        dist = geo.pairwise_distances(pos, norm="l2")
        assert np.allclose(dist, dist.T)

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            geo.pairwise_distances([(0, 0)], norm="l1")

    @pytest.mark.parametrize("norm", ["linf", "l2"])
    def test_entries_are_the_point_distances(self, norm):
        # The schedule tests take this matrix as their brute-force reference,
        # so each entry must be the scalar distance of its pair.
        pos = np.random.default_rng(6).uniform(-20, 20, size=(25, 2))
        dist = geo.pairwise_distances(pos, norm=norm)
        points = [geo.Point(x, y) for x, y in pos.tolist()]
        for i, a in enumerate(points):
            for j, b in enumerate(points):
                want = a.linf(b) if norm == "linf" else a.l2(b)
                assert dist[i, j] == pytest.approx(want, rel=1e-12, abs=0.0)

    def test_empty_deployment(self):
        assert geo.pairwise_distances(np.empty((0, 2))).shape == (0, 0)


class TestNeighborhoods:
    def test_neighborhood_matrix_excludes_self(self):
        pos = [(0, 0), (1, 0), (10, 10)]
        adj = geo.neighborhood_matrix(pos, 2, norm="l2")
        assert not adj[0, 0]
        assert adj[0, 1] and adj[1, 0]
        assert not adj[0, 2]

    def test_neighborhood_matrix_include_self(self):
        pos = [(0, 0), (1, 0), (10, 10)]
        adj = geo.neighborhood_matrix(pos, 2, norm="l2", include_self=True)
        assert adj.diagonal().all()
        assert adj.sum() == 3 + 2

    @pytest.mark.parametrize(
        "norm,other", [("linf", (3.0, 3.0)), ("l2", (0.0, 3.0))], ids=["linf", "l2"]
    )
    def test_pair_at_the_radius_is_adjacent(self, norm, other):
        # Neighbourhoods are closed balls: a pair exactly R apart is adjacent.
        pos = [(0.0, 0.0), other]
        assert geo.neighborhood_matrix(pos, 3.0, norm=norm)[0, 1]
        assert not geo.neighborhood_matrix(pos, 3.0 - 1e-9, norm=norm)[0, 1]

    def test_neighborhood_counts_grid(self):
        # On a 5x5 unit grid with R=1 (L-inf), interior nodes have 8 neighbors.
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pos = np.column_stack([xs.ravel(), ys.ravel()])
        counts = geo.neighborhood_matrix(pos, 1.0, norm="linf").sum(axis=1)
        assert counts.max() == 8
        assert counts.min() == 3  # corners

    def test_grid_neighborhood_size_matches_formula(self):
        # The paper: a neighborhood of radius R on the unit grid holds (2R+1)^2 - 1 others.
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(9.0))
        pos = np.column_stack([xs.ravel(), ys.ravel()])
        counts = geo.neighborhood_matrix(pos, 2.0, norm="linf").sum(axis=1)
        assert counts.max() == (2 * 2 + 1) ** 2 - 1


class TestFloatL2Distance:
    def test_equals_the_numpy_expression_on_random_pairs(self):
        # NeighborWatchRB's source-range test used the numpy expression on
        # two positions; the Python-float helper must agree float for float.
        rng = np.random.default_rng(17)
        for scale in (1.0, 30.0, 1e4):
            a = rng.uniform(-scale, scale, size=(20_000, 2))
            b = rng.uniform(-scale, scale, size=(20_000, 2))
            for pa, pb in zip(a, b):
                expected = float(np.sqrt(np.sum((np.asarray(pa, float) - np.asarray(pb, float)) ** 2)))
                assert geo.l2_distance_floats(pa.tolist(), pb.tolist()) == expected
