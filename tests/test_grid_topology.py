"""Unit tests for the analytical grid topology (repro.topology.grid)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.topology.grid import (
    GridBuckets,
    GridSpec,
    GridTopology,
    grid_index_of,
    grid_positions,
)


class TestGridSpec:
    def test_num_points(self):
        assert GridSpec(4, 3).num_points == 12

    def test_extent(self):
        assert GridSpec(5, 3, spacing=2.0).extent == (8.0, 4.0)

    def test_invalid_dimensions(self):
        with pytest.raises(ValueError):
            GridSpec(0, 3)
        with pytest.raises(ValueError):
            GridSpec(3, -1)

    def test_invalid_spacing(self):
        with pytest.raises(ValueError):
            GridSpec(3, 3, spacing=0.0)


class TestGridPositions:
    def test_row_major_order(self):
        pos = grid_positions(GridSpec(3, 2))
        assert pos.shape == (6, 2)
        assert pos[0].tolist() == [0.0, 0.0]
        assert pos[1].tolist() == [1.0, 0.0]
        assert pos[3].tolist() == [0.0, 1.0]

    def test_spacing_scales_coordinates(self):
        pos = grid_positions(GridSpec(2, 2, spacing=0.5))
        assert pos[3].tolist() == [0.5, 0.5]

    def test_grid_index_of_roundtrip(self):
        spec = GridSpec(4, 5)
        pos = grid_positions(spec)
        idx = grid_index_of(spec, 2, 3)
        assert pos[idx].tolist() == [2.0, 3.0]

    def test_grid_index_out_of_range(self):
        with pytest.raises(ValueError):
            grid_index_of(GridSpec(3, 3), 3, 0)


class TestGridTopology:
    def test_neighborhood_size_formula(self):
        topo = GridTopology(GridSpec(10, 10), radius=2)
        assert topo.neighborhood_size == (2 * 2 + 1) ** 2 - 1 == 24

    def test_koo_bound(self):
        # Koo: no algorithm tolerates t >= R(2R+1)/2.  For R=2 the bound is 5,
        # so the largest tolerable t is 4.
        topo = GridTopology(GridSpec(10, 10), radius=2)
        assert topo.max_tolerable_t == 4

    def test_koo_bound_r1(self):
        topo = GridTopology(GridSpec(5, 5), radius=1)
        # R(2R+1)/2 = 1.5, so t=1 is tolerable (t < 1.5).
        assert topo.max_tolerable_t == 1

    def test_neighborwatch_bound(self):
        # NeighborWatchRB tolerates t < ceil(R/2)^2.
        topo = GridTopology(GridSpec(10, 10), radius=4)
        assert topo.neighborwatch_tolerable_t == 3

    def test_neighborwatch_bound_is_weaker_than_koo(self):
        for radius in (1, 2, 3, 4, 6, 8):
            topo = GridTopology(GridSpec(20, 20), radius=radius)
            assert topo.neighborwatch_tolerable_t <= topo.max_tolerable_t

    def test_diameter_hops(self):
        topo = GridTopology(GridSpec(21, 11), radius=4)
        assert topo.diameter_hops == 5  # extent 20 / R 4

    def test_center_index(self):
        topo = GridTopology(GridSpec(5, 5), radius=1)
        center = topo.center_index()
        assert topo.positions[center].tolist() == [2.0, 2.0]

    def test_num_nodes(self):
        assert GridTopology(GridSpec(6, 7), radius=2).num_nodes == 42

    def test_invalid_radius(self):
        with pytest.raises(ValueError):
            GridTopology(GridSpec(5, 5), radius=0)

    def test_radius_in_cells_with_spacing(self):
        topo = GridTopology(GridSpec(5, 5, spacing=2.0), radius=4.0)
        assert topo.radius_in_cells == 2


class TestGridBuckets:
    """Grid-bucketed neighbor graphs must equal the brute-force computation.

    The bucketed path over-collects candidates from surrounding cells and
    filters with the same elementwise distance expressions as the dense code,
    so the property is exact set equality — no tolerance.
    """

    @staticmethod
    def _brute_force(positions, center, threshold, norm):
        diff = positions - np.asarray(center, dtype=float)[None, :]
        if norm == "linf":
            dist = np.max(np.abs(diff), axis=-1)
        else:
            dist = np.sqrt(np.sum(diff**2, axis=-1))
        return np.flatnonzero(dist <= threshold)

    def _assert_rows_match(self, pos, cell, threshold, norm, include_self):
        buckets = GridBuckets(pos, cell_size=cell)
        indptr, indices = buckets.neighbor_arrays(threshold, norm, include_self=include_self)
        assert indptr.size == pos.shape[0] + 1
        assert indptr[0] == 0 and indptr[-1] == indices.size
        for node in range(pos.shape[0]):
            row = indices[indptr[node] : indptr[node + 1]]
            expected = self._brute_force(pos, pos[node], threshold, norm)
            if not include_self:
                expected = expected[expected != node]
            assert row.tolist() == expected.tolist(), f"node {node}"

    @settings(max_examples=160, deadline=None)
    @given(
        points=st.lists(
            st.tuples(st.integers(-30, 30), st.integers(-30, 30)), min_size=2, max_size=50
        ),
        threshold=st.sampled_from([1.0, 2.5, 5.0]),
        cell_ratio=st.sampled_from([1 / 3, 1 / 2, 1.0, 1.5]),
        norm=st.sampled_from(["l2", "linf"]),
        include_self=st.booleans(),
    )
    def test_neighbor_arrays_match_brute_force(
        self, points, threshold, cell_ratio, norm, include_self
    ):
        # Cells from a third of the threshold (a 9x9 window of offsets, as
        # NodeSchedule's 3R conflict query over cells of R) to 1.5x it.
        pos = np.asarray(points, dtype=float) / 2.0
        self._assert_rows_match(pos, threshold * cell_ratio, threshold, norm, include_self)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    @pytest.mark.parametrize("include_self", [True, False])
    @pytest.mark.parametrize("cell", [0.5, 1.0, 3.0])
    @pytest.mark.parametrize(
        "points",
        [
            [],
            [(4.0, -2.5)],
            # One cell for sides 1 and 3, ids out of coordinate order.
            [(0.9, 0.2), (0.1, 0.1), (0.4, 0.4), (0.2, 0.3), (0.1, 0.1)],
            # Negative coordinates spanning several cells, with exact-boundary
            # distances (half-integers, threshold 1.5).
            [(-3.0, -1.5), (-1.5, -1.5), (-1.5, 0.0), (0.0, 0.0), (-4.5, -3.0), (1.5, -1.5)],
        ],
        ids=["empty", "single", "one-cell", "negative"],
    )
    def test_neighbor_arrays_edge_cases(self, points, cell, include_self, norm):
        pos = np.asarray(points, dtype=float).reshape(-1, 2)
        self._assert_rows_match(pos, cell, 1.5, norm, include_self)

    @pytest.mark.parametrize("norm", ["l2", "linf"])
    def test_large_deployment_matches_brute_force(self, norm):
        """Fixed-seed large-N spot check (the property tests stay small)."""
        rng = np.random.default_rng(123)
        pos = rng.uniform(0.0, 50.0, size=(3000, 2))
        threshold = 2.0
        diff = pos[:, None, :] - pos[None, :, :]
        if norm == "linf":
            dist = np.max(np.abs(diff), axis=-1)
        else:
            dist = np.sqrt(np.sum(diff**2, axis=-1))
        dense = dist <= threshold
        for cell in (threshold, threshold / 3):
            buckets = GridBuckets(pos, cell_size=cell)
            indptr, indices = buckets.neighbor_arrays(threshold, norm, include_self=True)
            src = np.repeat(np.arange(3000), np.diff(indptr))
            assert np.array_equal(
                np.flatnonzero(dense.ravel()), src * 3000 + indices
            ), f"cell {cell}"

    def test_cell_size_must_be_positive(self):
        with pytest.raises(ValueError):
            GridBuckets(np.zeros((3, 2)), cell_size=0.0)

    def test_unknown_norm_rejected(self):
        buckets = GridBuckets(np.zeros((3, 2)), cell_size=1.0)
        with pytest.raises(ValueError):
            buckets.neighbor_arrays(1.0, "l1")
