"""Tests for load accounting: cluster loads, particle loads, requester
weights."""

import numpy as np
import pytest

from repro.bh.distributions import plummer
from repro.bh.interaction_lists import TraversalEngine
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import build_tree
from repro.core.config import SchemeConfig
from repro.core.costzones import particle_loads_from_tree
from repro.core.load_model import cluster_loads, particle_loads
from repro.core.partition import Cell
from repro.core.tree_build import build_local_trees
from tests.helpers import uniform_cube

ROOT = Box(np.array([0.5, 0.5, 0.5]), 0.5)


def traversed_subtrees(n=400, seed=0):
    ps = uniform_cube(n, seed=seed)
    subs = build_local_trees(ps, [Cell(1, k) for k in range(8)], ROOT,
                             SchemeConfig(), 8)
    mac = BarnesHutMAC(0.7)
    for st in subs:
        TraversalEngine(st.tree, st.particles, mac).compute(
            ps.positions, MonopoleExpansion(st.tree),
            count_node_interactions=True)
    return ps, subs


class TestClusterLoads:
    def test_all_owned_clusters_reported(self):
        ps, subs = traversed_subtrees()
        loads = cluster_loads(subs)
        assert set(loads) == {st.cell.path_key for st in subs}
        assert all(v > 0 for v in loads.values())

    def test_denser_cluster_has_higher_load(self):
        rng = np.random.default_rng(1)
        # octant 0 holds 90% of the particles
        pos = np.concatenate((
            rng.uniform(0.0, 0.49, (360, 3)),
            rng.uniform(0.51, 0.99, (40, 3)),
        ))
        ps = ParticleSet(positions=pos, masses=np.ones(400))
        subs = build_local_trees(ps, [Cell(1, 0), Cell(1, 7)], ROOT,
                                 SchemeConfig(), 8)
        mac = BarnesHutMAC(0.7)
        for st in subs:
            TraversalEngine(st.tree, st.particles, mac).compute(
                ps.positions, MonopoleExpansion(st.tree),
                count_node_interactions=True)
        loads = cluster_loads(subs)
        assert loads[0] > loads[7]


class TestParticleLoads:
    def test_alignment_with_local_arrays(self):
        ps, subs = traversed_subtrees()
        loads = particle_loads(subs, ps.n)
        assert loads.shape == (ps.n,)
        assert np.all(loads >= 0)
        assert loads.sum() > 0

    def test_attribution_conserves_tree_totals(self):
        ps, subs = traversed_subtrees()
        total_counters = sum(float(st.tree.interactions.sum())
                             for st in subs)
        loads = particle_loads(subs, ps.n)
        assert loads.sum() == pytest.approx(total_counters)

    def test_particle_loads_from_tree_spreads_node_counts(self):
        ps = plummer(100, seed=2)
        tree = build_tree(ps, leaf_capacity=8)
        tree.interactions[0] = 100  # root: every particle shares it
        loads = particle_loads_from_tree(tree)
        assert loads.sum() == pytest.approx(100.0)
        assert np.allclose(loads, 1.0)


class TestRequesterWeights:
    def test_weights_sum_matches_flop_model(self):
        """Per-target weights must add up to the traversal's flop count."""
        ps = plummer(300, seed=3)
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.7)
        weights = np.zeros(ps.n)
        res = TraversalEngine(tree, ps, mac).compute(
            ps.positions, MonopoleExpansion(tree), target_weights=weights)
        assert weights.sum() == pytest.approx(res.flops(0))

    def test_central_particles_cost_more(self):
        """In a Plummer sphere the central particles traverse deeper."""
        ps = plummer(2000, seed=4)
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.7)
        weights = np.zeros(ps.n)
        TraversalEngine(tree, ps, mac).compute(
            ps.positions, MonopoleExpansion(tree), target_weights=weights)
        r = np.linalg.norm(ps.positions - ps.center_of_mass(), axis=1)
        inner = weights[r < np.median(r)].mean()
        outer = weights[r >= np.median(r)].mean()
        assert inner > outer

    def test_weights_optional(self):
        ps = plummer(50, seed=5)
        tree = build_tree(ps)
        res = TraversalEngine(tree, ps, BarnesHutMAC(0.7)).compute(
            ps.positions, MonopoleExpansion(tree))
        assert res.values.shape == (50,)
