"""Tests for ParticleSet and Box."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.bh.morton import morton_keys
from repro.bh.particles import Box, ParticleSet


def make_ps(n=10, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return ParticleSet(positions=rng.uniform(0, 1, (n, d)),
                       masses=rng.uniform(0.5, 1.5, n),
                       velocities=rng.normal(0, 1, (n, d)))


class TestBox:
    def test_basic_geometry(self):
        b = Box(np.array([1.0, 2.0, 3.0]), 0.5)
        assert b.dims == 3
        assert b.side == 1.0
        np.testing.assert_allclose(b.lo, [0.5, 1.5, 2.5])
        np.testing.assert_allclose(b.hi, [1.5, 2.5, 3.5])

    def test_invalid_half(self):
        with pytest.raises(ValueError):
            Box(np.zeros(3), 0.0)

    def test_invalid_center_shape(self):
        with pytest.raises(ValueError):
            Box(np.zeros(4), 1.0)

    def test_contains_half_open(self):
        b = Box(np.array([0.5, 0.5]), 0.5)
        pts = np.array([[0.0, 0.0], [0.999, 0.999], [1.0, 0.5], [-0.1, 0.5]])
        np.testing.assert_array_equal(b.contains(pts),
                                      [True, True, False, False])

    def test_children_partition_parent(self):
        b = Box(np.zeros(3), 1.0)
        rng = np.random.default_rng(3)
        pts = rng.uniform(-1, 1, (200, 3))
        memberships = np.zeros(200, dtype=int)
        for o in range(8):
            memberships += b.child(o).contains(pts)
        assert (memberships == 1).all()

    def test_octant_of_matches_child_contains(self):
        """A point's one-level Morton key is the octant whose child box
        holds it."""
        b = Box(np.zeros(3), 1.0)
        rng = np.random.default_rng(4)
        pts = rng.uniform(-1, 1, (100, 3))
        octs = morton_keys(pts, b.lo, b.side, bits=1)
        for i, o in enumerate(octs):
            assert b.child(int(o)).contains(pts[i:i + 1])[0]

    def test_child_octant_bit_convention(self):
        """Bit i of the octant selects the upper half of axis i."""
        b = Box(np.zeros(3), 1.0)
        c = b.child(0b101)  # +x, -y, +z
        np.testing.assert_allclose(c.center, [0.5, -0.5, 0.5])
        assert c.half == 0.5

    def test_invalid_octant(self):
        with pytest.raises(ValueError):
            Box(np.zeros(2), 1.0).child(4)

    def test_bounding_contains_all(self):
        rng = np.random.default_rng(5)
        pts = rng.normal(0, 3, (500, 3))
        b = Box.bounding(pts)
        assert b.contains(pts).all()

    def test_bounding_is_cube(self):
        pts = np.array([[0.0, 0.0, 0.0], [1.0, 10.0, 2.0]])
        b = Box.bounding(pts)
        assert b.half >= 5.0  # half the largest extent

    def test_bounding_empty_rejected(self):
        with pytest.raises(ValueError):
            Box.bounding(np.zeros((0, 3)))

    @given(st.integers(1, 50))
    def test_bounding_random(self, n):
        rng = np.random.default_rng(n)
        pts = rng.uniform(-5, 5, (n, 2))
        assert Box.bounding(pts).contains(pts).all()


class TestParticleSet:
    def test_construction_defaults(self):
        ps = ParticleSet(positions=np.zeros((3, 3)), masses=np.ones(3))
        assert ps.n == 3
        assert ps.dims == 3
        np.testing.assert_array_equal(ps.velocities, np.zeros((3, 3)))
        np.testing.assert_array_equal(ps.ids, [0, 1, 2])

    def test_len(self):
        assert len(make_ps(7)) == 7

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            ParticleSet(positions=np.zeros((3, 4)), masses=np.ones(3))
        with pytest.raises(ValueError):
            ParticleSet(positions=np.zeros((3, 3)), masses=np.ones(2))
        with pytest.raises(ValueError):
            ParticleSet(positions=np.zeros((3, 3)), masses=np.ones(3),
                        velocities=np.zeros((2, 3)))
        with pytest.raises(ValueError):
            ParticleSet(positions=np.zeros((3, 3)), masses=np.ones(3),
                        ids=np.arange(4))

    def test_rejects_nonpositive_mass(self):
        with pytest.raises(ValueError):
            ParticleSet(positions=np.zeros((2, 3)),
                        masses=np.array([1.0, 0.0]))

    def test_total_mass_and_com(self):
        ps = ParticleSet(
            positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
            masses=np.array([1.0, 3.0]),
        )
        assert ps.total_mass == 4.0
        np.testing.assert_allclose(ps.center_of_mass(), [1.5, 0.0, 0.0])

    def test_com_of_empty_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet.empty(3).center_of_mass()

    def test_subset_by_mask_keeps_ids(self):
        ps = make_ps(10)
        sub = ps.subset(ps.masses > 1.0)
        assert sub.n == int((ps.masses > 1.0).sum())
        assert set(sub.ids).issubset(set(ps.ids))

    def test_subset_by_index(self):
        ps = make_ps(10)
        sub = ps.subset(np.array([3, 1]))
        np.testing.assert_array_equal(sub.ids, [3, 1])
        np.testing.assert_array_equal(sub.positions, ps.positions[[3, 1]])

    def test_concatenate_round_trip(self):
        ps = make_ps(10)
        a = ps.subset(np.arange(4))
        b = ps.subset(np.arange(4, 10))
        merged = ParticleSet.concatenate([a, b])
        np.testing.assert_array_equal(merged.ids, ps.ids)
        np.testing.assert_allclose(merged.positions, ps.positions)

    def test_concatenate_skips_empty(self):
        ps = make_ps(5)
        merged = ParticleSet.concatenate([ParticleSet.empty(3), ps])
        assert merged.n == 5

    def test_concatenate_all_empty_rejected(self):
        with pytest.raises(ValueError):
            ParticleSet.concatenate([ParticleSet.empty(3)])

    def test_concatenate_dim_mismatch(self):
        with pytest.raises(ValueError):
            ParticleSet.concatenate([make_ps(3, d=2), make_ps(3, d=3)])

    def test_bounding_box(self):
        ps = make_ps(50)
        assert ps.bounding_box().contains(ps.positions).all()

    def test_empty(self):
        e = ParticleSet.empty(2)
        assert e.n == 0 and e.dims == 2
