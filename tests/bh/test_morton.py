"""Tests for Morton keys."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bh.morton import (
    MAX_BITS_2D,
    MAX_BITS_3D,
    morton_decode_2d,
    morton_decode_3d,
    morton_key_2d,
    morton_key_3d,
    morton_keys,
    quantize,
)

coord2 = st.integers(0, (1 << MAX_BITS_2D) - 1)
coord3 = st.integers(0, (1 << MAX_BITS_3D) - 1)


class TestMortonKeys:
    def test_known_2d_values(self):
        # interleave: key bits ...y1x1y0x0
        assert morton_key_2d(0, 0) == 0
        assert morton_key_2d(1, 0) == 1
        assert morton_key_2d(0, 1) == 2
        assert morton_key_2d(1, 1) == 3
        assert morton_key_2d(2, 0) == 4
        assert morton_key_2d(3, 3) == 15

    def test_known_3d_values(self):
        assert morton_key_3d(0, 0, 0) == 0
        assert morton_key_3d(1, 0, 0) == 1
        assert morton_key_3d(0, 1, 0) == 2
        assert morton_key_3d(0, 0, 1) == 4
        assert morton_key_3d(1, 1, 1) == 7

    def test_vectorized(self):
        k = morton_key_3d(np.arange(4), np.zeros(4, dtype=np.int64),
                          np.zeros(4, dtype=np.int64))
        np.testing.assert_array_equal(k, [0, 1, 8, 9])

    def test_rejects_float_coords(self):
        with pytest.raises(TypeError):
            morton_key_2d(np.array([0.5]), np.array([1.0]))

    @given(coord2, coord2)
    def test_2d_round_trip(self, x, y):
        k = morton_key_2d(x, y)
        dx, dy = morton_decode_2d(k)
        assert (dx, dy) == (x, y)

    @given(coord3, coord3, coord3)
    def test_3d_round_trip(self, x, y, z):
        k = morton_key_3d(x, y, z)
        dx, dy, dz = morton_decode_3d(k)
        assert (dx, dy, dz) == (x, y, z)

    @given(coord3, coord3, coord3, coord3, coord3, coord3)
    def test_3d_injective(self, x1, y1, z1, x2, y2, z2):
        if (x1, y1, z1) != (x2, y2, z2):
            assert morton_key_3d(x1, y1, z1) != morton_key_3d(x2, y2, z2)

    def test_keys_fit_in_int64(self):
        m = (1 << MAX_BITS_3D) - 1
        assert morton_key_3d(m, m, m) > 0  # no overflow into sign bit
        m2 = (1 << MAX_BITS_2D) - 1
        assert morton_key_2d(m2, m2) > 0


class TestQuantize:
    def test_grid_mapping(self):
        lo = np.array([0.0, 0.0])
        g = quantize(np.array([[0.0, 0.0], [0.5, 0.999], [0.999, 0.25]]),
                     lo, 1.0, bits=2)
        np.testing.assert_array_equal(g, [[0, 0], [2, 3], [3, 1]])

    def test_clipping_at_upper_edge(self):
        g = quantize(np.array([[1.0, 1.0]]), np.zeros(2), 1.0, bits=3)
        np.testing.assert_array_equal(g, [[7, 7]])

    def test_invalid_side(self):
        with pytest.raises(ValueError):
            quantize(np.zeros((1, 2)), np.zeros(2), 0.0, 3)


class TestMortonKeysOfPositions:
    def test_spatial_ordering_groups_octants(self):
        """All points in the low octant sort before points in others."""
        rng = np.random.default_rng(0)
        low = rng.uniform(0.0, 0.49, (20, 3))
        high = rng.uniform(0.51, 0.99, (20, 3))
        keys = morton_keys(np.vstack((low, high)), np.zeros(3), 1.0)
        assert keys[:20].max() < keys[20:].min()

    def test_bits_validation(self):
        pts = np.zeros((1, 3))
        with pytest.raises(ValueError):
            morton_keys(pts, np.zeros(3), 1.0, bits=0)
        with pytest.raises(ValueError):
            morton_keys(pts, np.zeros(3), 1.0, bits=MAX_BITS_3D + 1)

    def test_dims_validation(self):
        with pytest.raises(ValueError):
            morton_keys(np.zeros((1, 4)), np.zeros(4), 1.0)

    def test_2d_and_3d_defaults(self):
        assert morton_keys(np.full((1, 2), 0.5), np.zeros(2), 1.0).shape == (1,)
        assert morton_keys(np.full((1, 3), 0.5), np.zeros(3), 1.0).shape == (1,)

    def test_prefix_property(self):
        """Keys at depth b are prefixes of keys at depth b+1."""
        rng = np.random.default_rng(1)
        pts = rng.uniform(0, 1, (100, 3))
        k4 = morton_keys(pts, np.zeros(3), 1.0, bits=4)
        k5 = morton_keys(pts, np.zeros(3), 1.0, bits=5)
        np.testing.assert_array_equal(k4, k5 >> 3)
