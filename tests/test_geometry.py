"""Unit tests for repro.topology.geometry."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, strategies as st

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


class TestNeighborhoods:
    def test_neighbors_within_linf(self):
        pos = [(0, 0), (2, 0), (0, 2), (3, 3), (5, 5)]
        idx = geo.neighbors_within(pos, (0, 0), 3, norm="linf")
        assert set(idx.tolist()) == {0, 1, 2, 3}

    def test_neighbors_within_strict(self):
        pos = [(0, 0), (3, 0)]
        assert 1 in geo.neighbors_within(pos, (0, 0), 3, norm="linf").tolist()
        assert 1 not in geo.neighbors_within(pos, (0, 0), 3, norm="linf", strict=True).tolist()

    def test_neighborhood_matrix_excludes_self(self):
        pos = [(0, 0), (1, 0), (10, 10)]
        adj = geo.neighborhood_matrix(pos, 2, norm="l2")
        assert not adj[0, 0]
        assert adj[0, 1] and adj[1, 0]
        assert not adj[0, 2]

    def test_neighborhood_counts_grid(self):
        # On a 5x5 unit grid with R=1 (L-inf), interior nodes have 8 neighbors.
        xs, ys = np.meshgrid(np.arange(5.0), np.arange(5.0))
        pos = np.column_stack([xs.ravel(), ys.ravel()])
        counts = geo.neighborhood_counts(pos, 1.0, norm="linf")
        assert counts.max() == 8
        assert counts.min() == 3  # corners

    def test_grid_neighborhood_size_matches_formula(self):
        # The paper: a neighborhood of radius R on the unit grid holds (2R+1)^2 - 1 others.
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(9.0))
        pos = np.column_stack([xs.ravel(), ys.ravel()])
        counts = geo.neighborhood_counts(pos, 2.0, norm="linf")
        assert counts.max() == (2 * 2 + 1) ** 2 - 1


class TestBoundingAndCommonNeighborhood:
    def test_bounding_box(self):
        assert geo.bounding_box([(1, 2), (3, -1)]) == (1.0, -1.0, 3.0, 2.0)

    def test_bounding_box_empty(self):
        assert geo.bounding_box(np.empty((0, 2))) == (0.0, 0.0, 0.0, 0.0)

    def test_fits_in_common_neighborhood_true(self):
        pos = [(0, 0), (2, 2), (1, 0)]
        assert geo.fits_in_common_neighborhood(pos, radius=1.0)

    def test_fits_in_common_neighborhood_false(self):
        pos = [(0, 0), (3, 0)]
        assert not geo.fits_in_common_neighborhood(pos, radius=1.0)

    def test_fits_empty_set(self):
        assert geo.fits_in_common_neighborhood(np.empty((0, 2)), radius=1.0)

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=-50, max_value=50), st.floats(min_value=-50, max_value=50)
            ),
            min_size=1,
            max_size=10,
        ),
        st.floats(min_value=0.5, max_value=10),
    )
    def test_fits_matches_bruteforce_center(self, points, radius):
        """The box test agrees with an explicit center construction."""
        pos = geo.as_positions(points)
        xmin, ymin, xmax, ymax = geo.bounding_box(pos)
        expected = (xmax - xmin) <= 2 * radius + 1e-9 and (ymax - ymin) <= 2 * radius + 1e-9
        assert geo.fits_in_common_neighborhood(pos, radius) == expected


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


class TestDiameters:
    def test_linf_diameter_hops(self):
        pos = [(0, 0), (10, 0), (0, 7)]
        assert geo.linf_diameter_hops(pos, radius=2.0) == 5

    def test_diameter_single_point(self):
        assert geo.linf_diameter_hops([(1, 1)], radius=2.0) == 0

    def test_diameter_invalid_radius(self):
        with pytest.raises(ValueError):
            geo.linf_diameter_hops([(0, 0), (1, 1)], radius=0)

    def test_grid_hop_distance(self):
        assert geo.grid_hop_distance((0, 0), (7, 3), radius=2.0) == 4
        assert geo.grid_hop_distance((0, 0), (0, 0), radius=2.0) == 0

    def test_grid_hop_distance_invalid_radius(self):
        with pytest.raises(ValueError):
            geo.grid_hop_distance((0, 0), (1, 1), radius=0.0)
