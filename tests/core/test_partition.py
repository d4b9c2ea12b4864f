"""Tests for cells, cluster keys, and canonical Morton-range covers."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh.particles import Box
from repro.core.assignment import clusters_of_rank
from repro.core.config import SchemeConfig
from repro.core.partition import (
    Cell,
    cluster_coords,
    cluster_keys,
    cover_cells,
)
from tests.oracles.merge import contains_cell

ROOT2 = Box(np.array([0.5, 0.5]), 0.5)
ROOT3 = Box(np.array([0.5, 0.5, 0.5]), 0.5)


class TestCell:
    def test_ordering_and_equality(self):
        assert Cell(1, 0) < Cell(1, 1) < Cell(2, 0)
        assert Cell(2, 5) == Cell(2, 5)

    def test_validation(self):
        with pytest.raises(ValueError):
            Cell(-1, 0)
        with pytest.raises(ValueError):
            Cell(0, -2)

    def test_key_range(self):
        # depth-1 cell 3 of a 2-D depth-3 key space covers 16 keys
        assert Cell(1, 3).key_range(3, 2) == (48, 64)
        assert Cell(0, 0).key_range(3, 2) == (0, 64)

    def test_key_range_depth_checked(self):
        with pytest.raises(ValueError):
            Cell(4, 0).key_range(3, 2)

    def test_contains_cell(self):
        parent = Cell(1, 2)
        assert contains_cell(parent, Cell(2, 2 * 4 + 1), 2)
        assert contains_cell(parent, parent, 2)
        assert not contains_cell(parent, Cell(2, 3 * 4), 2)
        assert not contains_cell(parent, Cell(0, 0), 2)

    def test_box(self):
        b = Cell(1, 0b11).box(ROOT2)
        np.testing.assert_allclose(b.center, [0.75, 0.75])


class TestClusterKeys:
    def test_grid_size(self):
        assert SchemeConfig(grid_level=2).clusters(2) == 16
        assert SchemeConfig(grid_level=2).clusters(3) == 64
        with pytest.raises(ValueError):
            SchemeConfig(grid_level=-1)

    def test_level_zero_single_cluster(self):
        pos = np.random.default_rng(0).uniform(0, 1, (10, 3))
        np.testing.assert_array_equal(cluster_keys(pos, ROOT3, 0),
                                      np.zeros(10))

    def test_keys_match_cell_boxes(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0, 1, (100, 2))
        keys = cluster_keys(pos, ROOT2, 2)
        for i in range(100):
            cell = Cell(2, int(keys[i]))
            assert cell.box(ROOT2).contains(pos[i:i + 1])[0]

    def test_coords_round_trip(self):
        keys = np.arange(16, dtype=np.int64)
        coords = cluster_coords(keys, 2)
        from repro.bh.morton import morton_key_2d
        back = morton_key_2d(coords[:, 0], coords[:, 1])
        np.testing.assert_array_equal(back, keys)

    def test_coords_bad_dims(self):
        with pytest.raises(ValueError):
            cluster_coords(np.zeros(1, dtype=np.int64), 4)

    def test_owned_cells_grid_sorted(self):
        """A rank's static clusters come in Morton (path key) order."""
        owners = np.zeros(16, dtype=np.int64)
        owners[[9, 2, 5]] = 3
        np.testing.assert_array_equal(clusters_of_rank(owners, 3), [2, 5, 9])


class TestCoverCells:
    def test_full_range_is_root(self):
        assert cover_cells(0, 64, 3, 2) == [Cell(0, 0)]

    def test_single_key(self):
        assert cover_cells(5, 6, 3, 2) == [Cell(3, 5)]

    def test_empty_range(self):
        assert cover_cells(7, 7, 3, 2) == []

    def test_known_decomposition(self):
        # [1, 8) in a 2-D depth-3 space: keys 1,2,3 (depth 3), 4..8 (depth 2)
        cells = cover_cells(1, 8, 3, 2)
        assert cells == [Cell(3, 1), Cell(3, 2), Cell(3, 3), Cell(2, 1)]

    def test_bounds_checked(self):
        with pytest.raises(ValueError):
            cover_cells(-1, 4, 3, 2)
        with pytest.raises(ValueError):
            cover_cells(0, 65, 3, 2)
        with pytest.raises(ValueError):
            cover_cells(5, 4, 3, 2)

    @settings(deadline=None, max_examples=100)
    @given(st.integers(0, 4096), st.integers(0, 4096), st.integers(2, 3))
    def test_cover_exactly_tiles_range(self, a, b, dims):
        bits = 4 if dims == 3 else 6
        span = 1 << (dims * bits)
        lo, hi = sorted((a % (span + 1), b % (span + 1)))
        cells = cover_cells(lo, hi, bits, dims)
        # ranges must be consecutive and exactly tile [lo, hi)
        pos = lo
        for c in cells:
            clo, chi = c.key_range(bits, dims)
            assert clo == pos
            pos = chi
        assert pos == hi

    @settings(deadline=None, max_examples=50)
    @given(st.integers(0, 4095), st.integers(0, 4095))
    def test_cover_is_minimal_aligned(self, a, b):
        lo, hi = sorted((a, b + 1))
        cells = cover_cells(lo, hi, 6, 2)
        # every cell is maximal: doubling it would overflow the range or
        # break alignment
        for c in cells:
            clo, chi = c.key_range(6, 2)
            if c.depth > 0:
                parent = Cell(c.depth - 1, c.path_key >> 2)
                parent_lo, parent_hi = parent.key_range(6, 2)
                assert parent_lo < lo or parent_hi > hi
