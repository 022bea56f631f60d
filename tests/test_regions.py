"""Unit tests for the NeighborWatchRB square partition (repro.core.regions)."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.regions import SquareGrid, default_square_side


class TestDefaultSquareSide:
    def test_analytical_model(self):
        assert default_square_side(4, norm="linf") == 2.0
        assert default_square_side(5, norm="linf") == 3.0  # ceil(5/2)

    def test_simulation_model(self):
        assert default_square_side(6, norm="l2") == pytest.approx(2.0)

    def test_invalid(self):
        with pytest.raises(ValueError):
            default_square_side(0)
        with pytest.raises(ValueError):
            default_square_side(4, norm="weird")


class TestSquareGrid:
    def test_dimensions(self):
        grid = SquareGrid(width=10, height=6, side=2.0)
        assert grid.num_cols == 5
        assert grid.num_rows == 3
        assert grid.num_squares == 15

    def test_square_of_interior_point(self):
        grid = SquareGrid(width=10, height=10, side=2.0)
        assert grid.square_of((3.0, 5.5)) == (1, 2)

    def test_square_of_boundary_folds_in(self):
        grid = SquareGrid(width=10, height=10, side=2.0)
        assert grid.square_of((10.0, 10.0)) == (4, 4)

    def test_squares_of_vectorised_matches_scalar(self):
        grid = SquareGrid(width=8, height=8, side=1.5)
        rng = np.random.default_rng(0)
        pts = rng.uniform(0, 8, size=(50, 2))
        assert grid.squares_of(pts) == [grid.square_of(p) for p in pts]

    def test_flat_index_roundtrip(self):
        grid = SquareGrid(width=9, height=7, side=1.0)
        for square in grid.iter_squares():
            assert grid.square_from_flat(grid.flat_index(square)) == square

    def test_flat_index_out_of_range(self):
        grid = SquareGrid(width=4, height=4, side=2.0)
        with pytest.raises(ValueError):
            grid.flat_index((5, 0))
        with pytest.raises(ValueError):
            grid.square_from_flat(99)

    def test_center(self):
        grid = SquareGrid(width=10, height=10, side=2.0)
        assert grid.center((1, 2)) == (3.0, 5.0)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            SquareGrid(width=10, height=10, side=0)
        with pytest.raises(ValueError):
            SquareGrid(width=0, height=10, side=1)


class TestNeighborRelation:
    def test_interior_has_eight_neighbors(self):
        grid = SquareGrid(width=10, height=10, side=1.0)
        assert len(grid.neighbors((5, 5))) == 8

    def test_corner_has_three_neighbors(self):
        grid = SquareGrid(width=10, height=10, side=1.0)
        assert len(grid.neighbors((0, 0))) == 3

    def test_include_self(self):
        grid = SquareGrid(width=10, height=10, side=1.0)
        assert (5, 5) in grid.neighbors((5, 5), include_self=True)
        assert (5, 5) not in grid.neighbors((5, 5))

    def test_are_neighbors_symmetric(self):
        grid = SquareGrid(width=10, height=10, side=1.0)
        assert grid.are_neighbors((2, 3), (3, 4))
        assert grid.are_neighbors((3, 4), (2, 3))
        assert not grid.are_neighbors((2, 3), (2, 3))
        assert not grid.are_neighbors((2, 3), (4, 3))

    @given(st.floats(min_value=1.0, max_value=10.0))
    def test_paper_square_side_keeps_neighbors_in_range_l2(self, radius):
        """The simulation square side R/3 keeps diagonal neighbors in L2 range."""
        grid = SquareGrid(width=30, height=30, side=radius / 3.0)
        assert grid.validate_for_radius(radius, norm="l2")

    @given(st.integers(min_value=1, max_value=10))
    def test_paper_square_side_keeps_neighbors_in_range_linf(self, radius):
        """The analytical square side ceil(R/2) keeps neighbors in L-inf range...

        ...only when ceil(R/2) <= R/2 holds exactly (even R); for odd R the
        paper's ceiling slightly exceeds R/2 and the guarantee needs R >= 2.
        This mirrors the paper's implicit assumption that R is large.
        """
        side = math.ceil(radius / 2)
        grid = SquareGrid(width=30, height=30, side=side)
        assert grid.max_intra_neighbor_distance("linf") == 2 * side
        if radius % 2 == 0:
            assert grid.validate_for_radius(radius, norm="linf")


class TestOccupancy:
    def test_occupancy_partitions_nodes(self):
        grid = SquareGrid(width=6, height=6, side=2.0)
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 6, size=(40, 2))
        occ = grid.occupancy(pos)
        all_ids = sorted(i for ids in occ.values() for i in ids)
        assert all_ids == list(range(40))

    def test_occupancy_membership_consistent(self):
        grid = SquareGrid(width=6, height=6, side=2.0)
        rng = np.random.default_rng(2)
        pos = rng.uniform(0, 6, size=(30, 2))
        occ = grid.occupancy(pos)
        for square, ids in occ.items():
            for i in ids:
                assert grid.square_of(pos[i]) == square
