"""Tests for tree construction invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh.distributions import plummer
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import NO_CHILD, Tree, build_tree, cell_box
from tests.helpers import uniform_cube


def simple_ps(n=200, d=3, seed=0):
    rng = np.random.default_rng(seed)
    return ParticleSet(positions=rng.uniform(0, 1, (n, d)),
                       masses=rng.uniform(0.5, 1.5, n))


class TestCellBox:
    def test_root_cell(self):
        root = Box(np.zeros(3), 1.0)
        b = cell_box(root, 0, 0)
        np.testing.assert_allclose(b.center, root.center)
        assert b.half == root.half

    def test_depth_one_octant(self):
        root = Box(np.zeros(3), 1.0)
        b = cell_box(root, 1, 0b011)  # +x, +y, -z
        np.testing.assert_allclose(b.center, [0.5, 0.5, -0.5])
        assert b.half == 0.5

    def test_depth_two_path(self):
        root = Box(np.zeros(2), 1.0)
        # first go to quadrant 0 (-x,-y), then quadrant 3 (+x,+y)
        b = cell_box(root, 2, (0 << 2) | 3)
        np.testing.assert_allclose(b.center, [-0.25, -0.25])
        assert b.half == 0.25

    def test_invalid_key(self):
        root = Box(np.zeros(3), 1.0)
        with pytest.raises(ValueError):
            cell_box(root, 1, 8)
        with pytest.raises(ValueError):
            cell_box(root, -1, 0)
        with pytest.raises(ValueError):
            cell_box(root, 0, 1)


class TestBuildTree:
    def test_leaf_capacity_respected(self):
        ps = simple_ps(500)
        tree = build_tree(ps, leaf_capacity=8)
        for leaf in tree.leaves():
            assert tree.count(int(leaf)) <= 8

    def test_every_particle_in_exactly_one_leaf(self):
        ps = simple_ps(300)
        tree = build_tree(ps, leaf_capacity=4)
        seen = np.concatenate([tree.particle_indices(int(l))
                               for l in tree.leaves()])
        assert sorted(seen.tolist()) == list(range(300))

    def test_node_slices_nest(self):
        """A child's particle slice lies inside its parent's slice."""
        ps = simple_ps(400)
        tree = build_tree(ps, leaf_capacity=4)
        for node in range(tree.nnodes):
            for c in tree.children[node]:
                if c != NO_CHILD:
                    assert tree.start[node] <= tree.start[c]
                    assert tree.end[c] <= tree.end[node]

    def test_children_cover_parent_slice(self):
        ps = simple_ps(400)
        tree = build_tree(ps, leaf_capacity=4)
        for node in range(tree.nnodes):
            kids = [c for c in tree.children[node] if c != NO_CHILD]
            if kids:
                total = sum(tree.count(int(c)) for c in kids)
                assert total == tree.count(node)

    def test_particles_inside_their_node_box(self):
        ps = simple_ps(300)
        tree = build_tree(ps, leaf_capacity=4, collapse_chains=False)
        for node in range(tree.nnodes):
            idx = tree.particle_indices(node)
            box = Box(tree.center[node], float(tree.half[node]))
            # half-open boundary effects: allow tiny tolerance
            assert np.all(ps.positions[idx] >= box.lo - 1e-12)
            assert np.all(ps.positions[idx] <= box.hi + 1e-12)

    def test_path_key_identifies_cell(self):
        ps = simple_ps(300)
        tree = build_tree(ps, leaf_capacity=4)
        for node in range(0, tree.nnodes, 7):
            b = cell_box(tree.root_box, int(tree.depth[node]),
                         int(tree.path_key[node]))
            np.testing.assert_allclose(b.center, tree.center[node])
            assert b.half == pytest.approx(float(tree.half[node]))

    def test_monopoles(self):
        ps = simple_ps(200)
        tree = build_tree(ps, leaf_capacity=8)
        assert tree.mass[tree.ROOT] == pytest.approx(ps.total_mass)
        np.testing.assert_allclose(tree.com[tree.ROOT],
                                   ps.center_of_mass(), atol=1e-12)

    def test_node_monopole_matches_slice(self):
        ps = simple_ps(300)
        tree = build_tree(ps, leaf_capacity=4)
        for node in range(0, tree.nnodes, 5):
            idx = tree.particle_indices(node)
            sub = ps.subset(idx)
            assert tree.mass[node] == pytest.approx(sub.total_mass)
            np.testing.assert_allclose(tree.com[node], sub.center_of_mass(),
                                       atol=1e-10)

    def test_collapse_chains_shrinks_tree(self):
        """Two tight pairs far apart: chains must be collapsed."""
        pos = np.array([
            [0.1, 0.1, 0.1], [0.1 + 1e-5, 0.1, 0.1],
            [0.9, 0.9, 0.9], [0.9, 0.9 + 1e-5, 0.9],
        ])
        ps = ParticleSet(positions=pos, masses=np.ones(4))
        chained = build_tree(ps, leaf_capacity=1, collapse_chains=False)
        collapsed = build_tree(ps, leaf_capacity=1, collapse_chains=True)
        assert collapsed.nnodes < chained.nnodes
        # both still separate the pairs into singleton leaves
        assert all(collapsed.count(int(l)) <= 1 for l in collapsed.leaves())

    def test_explicit_root_box(self):
        ps = simple_ps(100)
        box = Box(np.full(3, 0.5), 2.0)
        tree = build_tree(ps, box=box)
        assert tree.root_box is box

    def test_particle_outside_root_box_rejected(self):
        ps = simple_ps(100)
        with pytest.raises(ValueError, match="outside"):
            build_tree(ps, box=Box(np.full(3, 10.0), 0.5))

    def test_empty_particles_rejected(self):
        with pytest.raises(ValueError):
            build_tree(ParticleSet.empty(3))

    def test_bad_leaf_capacity(self):
        with pytest.raises(ValueError):
            build_tree(simple_ps(10), leaf_capacity=0)

    def test_max_depth_limits_refinement(self):
        ps = simple_ps(2000)
        tree = build_tree(ps, leaf_capacity=1, max_depth=3)
        assert tree.node_depth_max() <= 3

    def test_max_depth_validated(self):
        with pytest.raises(ValueError):
            build_tree(simple_ps(10), max_depth=0)
        with pytest.raises(ValueError):
            build_tree(simple_ps(10), max_depth=99)

    def test_2d_tree(self):
        ps = simple_ps(200, d=2)
        tree = build_tree(ps, leaf_capacity=4)
        assert tree.dims == 2
        assert tree.children.shape[1] == 4
        seen = np.concatenate([tree.particle_indices(int(l))
                               for l in tree.leaves()])
        assert len(seen) == 200

    def test_children_appended_after_parent(self):
        """The invariant the per-node reverse scans in
        ``tests/oracles/upward.py`` rely on."""
        ps = simple_ps(500)
        tree = build_tree(ps, leaf_capacity=4)
        for node in range(tree.nnodes):
            for c in tree.children[node]:
                if c != NO_CHILD:
                    assert c > node

    @settings(deadline=None, max_examples=20)
    @given(st.integers(1, 300), st.integers(1, 16))
    def test_random_invariants(self, n, s):
        rng = np.random.default_rng(n * 31 + s)
        ps = ParticleSet(positions=rng.normal(0, 1, (n, 3)),
                         masses=np.ones(n))
        tree = build_tree(ps, leaf_capacity=s)
        seen = np.concatenate([tree.particle_indices(int(l))
                               for l in tree.leaves()])
        assert sorted(seen.tolist()) == list(range(n))
        assert tree.mass[0] == pytest.approx(float(n))


class TestTreeQueries:
    def test_is_leaf_and_count(self):
        ps = simple_ps(50)
        tree = build_tree(ps, leaf_capacity=100)
        assert tree.is_leaf(tree.ROOT)
        assert tree.count(tree.ROOT) == 50

    def test_remote_defaults(self):
        ps = simple_ps(50)
        tree = build_tree(ps)
        assert not any(tree.is_remote(i) for i in range(tree.nnodes))
