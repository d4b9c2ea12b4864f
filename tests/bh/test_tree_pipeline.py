"""Equivalence suite for the level-synchronous tree pipeline.

The vectorized builder and the level-batched upward passes each have a
node-at-a-time reference kept verbatim from the seed in ``tests/oracles``.
These tests pin *exact* array equality for construction and upward
passes.
"""

import numpy as np
import pytest

from repro.bh.distributions import (
    gaussian_blobs,
    plummer,
    random_centers,
)
from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.tree import NO_CHILD, build_tree, cell_box, cell_boxes
from tests.helpers import uniform_cube
from tests.oracles.tree import (
    build_tree_reference,
    compute_monopoles_reference,
)
from tests.oracles.upward import build_multipoles_reference

N = 400

ARRAY_FIELDS = ("children", "depth", "path_key", "center", "half",
                "start", "end", "order")


def cloud(n: int, dims: int, seed: int) -> ParticleSet:
    """Centrally-concentrated set in 3-D, uniform in 2-D (the Plummer
    model is three-dimensional only)."""
    if dims == 3:
        return plummer(n, seed=seed)
    return uniform_cube(n, dims=dims, seed=seed)


def make_particles(kind: str, dims: int, n: int = N,
                   seed: int = 7) -> ParticleSet:
    if kind == "plummer":
        return cloud(n, dims, seed)
    if kind == "gaussian":
        rng = np.random.default_rng(seed)
        centers = random_centers(4, dims, rng)
        return gaussian_blobs(n, centers, sigma=3.0, dims=dims, seed=seed)
    # A few distinct sites, each holding many exactly coincident
    # particles: refinement can never separate them, so leaves at
    # max_depth hold more than the capacity.
    rng = np.random.default_rng(seed)
    sites = rng.uniform(10.0, 90.0, (10, dims))
    pos = np.repeat(sites, n // 10, axis=0)
    return ParticleSet(positions=pos, masses=rng.uniform(0.5, 1.5, n))


def assert_trees_equal(a, b):
    assert a.nnodes == b.nnodes
    for f in ARRAY_FIELDS:
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f),
                                      err_msg=f)
    np.testing.assert_array_equal(a.mass, b.mass)
    np.testing.assert_array_equal(a.com, b.com)


class TestBuildEquivalence:
    @pytest.mark.parametrize("kind", ["plummer", "gaussian", "duplicates"])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("cap", [1, 8, 32])
    @pytest.mark.parametrize("collapse", [True, False])
    def test_builders_bitwise_equal(self, kind, dims, cap, collapse):
        ps = make_particles(kind, dims)
        ref = build_tree_reference(ps, leaf_capacity=cap,
                                   collapse_chains=collapse)
        vec = build_tree(ps, leaf_capacity=cap, collapse_chains=collapse)
        assert_trees_equal(vec, ref)

    def test_small_input_equals_oracle(self):
        """127 particles (the size the recursive builder used to be
        dispatched for) through the level-synchronous builder."""
        ps = plummer(127, seed=3)
        assert_trees_equal(build_tree(ps, leaf_capacity=4),
                           build_tree_reference(ps, leaf_capacity=4))

    @pytest.mark.parametrize("dims", [2, 3])
    def test_explicit_max_depth_equal(self, dims):
        ps = make_particles("plummer", dims)
        for depth in (3, 8):
            assert_trees_equal(
                build_tree(ps, leaf_capacity=1, max_depth=depth),
                build_tree_reference(ps, leaf_capacity=1, max_depth=depth))


class TestUpwardPasses:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_monopoles_and_interaction_sums(self, dims):
        ps = cloud(1000, dims, seed=3)
        tree = build_tree(ps, leaf_capacity=8)

        compute_monopoles_reference(tree, ps)
        mass, com = tree.mass.copy(), tree.com.copy()
        tree.compute_monopoles(ps)
        np.testing.assert_array_equal(tree.mass, mass)
        np.testing.assert_array_equal(tree.com, com)

    @pytest.mark.parametrize("degree", [1, 2])
    def test_multipole_coeffs(self, degree):
        ps = plummer(1500, seed=5)
        tree = build_tree(ps, leaf_capacity=8)
        ref = TreeMultipoles(tree, None, degree)
        build_multipoles_reference(ref, ps)
        vec = TreeMultipoles(tree, None, degree)
        vec._build(ps)
        np.testing.assert_array_equal(vec.coeffs, ref.coeffs)


class TestNodeNumbering:
    """The reverse level scans (and the seed's reverse id scan before
    them) rely on every child being numbered after its parent."""

    @pytest.mark.parametrize("builder", [build_tree, build_tree_reference])
    @pytest.mark.parametrize("collapse", [True, False])
    def test_children_ids_exceed_parent(self, builder, collapse):
        ps = plummer(800, seed=11)
        tree = builder(ps, leaf_capacity=4, collapse_chains=collapse)
        parent = np.repeat(np.arange(tree.nnodes),
                           tree.children.shape[1])
        kids = tree.children.ravel()
        ok = kids != NO_CHILD
        assert np.all(kids[ok] > parent[ok])

    @pytest.mark.parametrize("dims", [2, 3])
    def test_nodes_by_level_partitions_tree(self, dims):
        ps = cloud(500, dims, seed=9)
        tree = build_tree(ps, leaf_capacity=4)
        levels = tree.nodes_by_level()
        all_ids = np.concatenate([ids for _, ids in levels])
        assert np.array_equal(np.sort(all_ids), np.arange(tree.nnodes))
        for depth, ids in levels:
            assert np.all(tree.depth[ids] == depth)


class TestCellBoxes:
    @pytest.mark.parametrize("dims", [2, 3])
    def test_batch_matches_scalar(self, dims):
        ps = cloud(400, dims, seed=2)
        tree = build_tree_reference(ps, leaf_capacity=4)
        center, half = cell_boxes(tree.root_box, tree.depth,
                                  tree.path_key)
        for i in range(tree.nnodes):
            b = cell_box(tree.root_box, int(tree.depth[i]),
                         int(tree.path_key[i]))
            np.testing.assert_array_equal(center[i], b.center)
            assert half[i] == b.half

