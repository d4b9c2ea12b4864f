"""Regression tests for bugs found (and fixed) during development.

Each test pins a specific failure mode observed while building the
reproduction; see DESIGN.md section 6 for the narrative.
"""

import numpy as np
import pytest

from repro.bh.distributions import plummer
from repro.bh.particles import Box, ParticleSet
from repro.core.config import SchemeConfig
from repro.core.branch_nodes import branch_key
from repro.core.data_shipping import node_keys
from repro.core.partition import Cell
from repro.core.simulation import ParallelBarnesHut
from repro.core.tree_build import build_local_trees
from repro.machine.profiles import NCUBE2, ZERO_COST
from tests.helpers import uniform_cube
from tests.oracles.merge import cell_of_branch_key, contains_cell


class TestDuplicateSlotAccumulation:
    """Bug 1: a result bin carrying two records for the same local
    particle (two branch keys shipped to one owner) lost one addition
    under fancy-index +=.  Scattered (SPSA) ownership triggers it."""

    def test_spsa_scattered_ownership_exact(self):
        ps = plummer(1200, seed=101)
        cfg = SchemeConfig(scheme="spsa", mode="potential", grid_level=2,
                           bin_capacity=7)  # tiny bins force mixing
        serial = ParallelBarnesHut(ps, cfg, p=1, profile=ZERO_COST).run()
        par = ParallelBarnesHut(ps, cfg, p=8, profile=ZERO_COST).run()
        np.testing.assert_allclose(par.values, serial.values, atol=1e-10)


class TestLocalTreeGlobalAddressing:
    """Bug 2: local subtrees store cell-relative path keys; exporting
    them without composing with the owning cell's address produced
    colliding global keys (data-shipping cache corruption)."""

    def test_node_cell_composition(self):
        root = Box(np.array([0.5, 0.5, 0.5]), 0.5)
        rng = np.random.default_rng(102)
        # particles confined to octant 5
        base = Cell(1, 5).box(root)
        pos = rng.uniform(base.lo + 1e-6, base.hi - 1e-6, (64, 3))
        ps = ParticleSet(positions=pos, masses=np.ones(64))
        subs = build_local_trees(ps, [Cell(1, 5)], root,
                                 SchemeConfig(leaf_capacity=4), 8)
        # every node's global cell must be a descendant of the owned cell
        # (the root composes exactly to the cell, or below it when chain
        # collapsing pushed it down)
        for key in node_keys(subs[0], 3).tolist():
            cell = cell_of_branch_key(key, 3)
            assert contains_cell(Cell(1, 5), cell, 3), (key, cell)

    def test_distinct_subtrees_distinct_keys(self):
        root = Box(np.array([0.5, 0.5, 0.5]), 0.5)
        ps = uniform_cube(200, seed=103)
        subs = build_local_trees(ps, [Cell(1, k) for k in range(8)], root,
                                 SchemeConfig(leaf_capacity=4), 8)
        keys = np.concatenate([node_keys(st, 3) for st in subs])
        assert np.unique(keys).size == keys.size, \
            "global cell addresses collide"

    def test_keys_at_21_bits_set_bit_63(self):
        """At depth 21 in 3-D the anchor is bit 63: the keys are
        unsigned and still equal ``branch_key`` of the composed cell."""
        root = Box(np.array([0.5, 0.5, 0.5]), 0.5)
        pos = np.repeat([[0.3, 0.7, 0.2], [0.3 + 1e-6, 0.7, 0.2]], 3,
                        axis=0)
        ps = ParticleSet(positions=pos, masses=np.ones(6))
        cell = Cell(1, 2)
        st, = build_local_trees(ps, [cell], root,
                                SchemeConfig(leaf_capacity=1), 21)
        keys = node_keys(st, 3)
        assert keys.dtype == np.uint64
        want = [branch_key(Cell(cell.depth + int(d),
                                (cell.path_key << (3 * int(d))) | int(pk)),
                           3)
                for d, pk in zip(st.tree.depth, st.tree.path_key)]
        assert keys.tolist() == want
        assert max(want) >= 1 << 63


class TestLeafLoadUnits:
    """Bug 3: counting leaf *visits* instead of *pairs* under-weighted
    dense clusters and made SPDA's balancer diverge."""

    def test_leaf_counter_counts_pairs(self):
        from repro.bh.interaction_lists import TraversalEngine
        from repro.bh.mac import BarnesHutMAC
        from repro.bh.multipole import MonopoleExpansion
        from repro.bh.tree import build_tree

        ps = uniform_cube(64, seed=104)
        tree = build_tree(ps, leaf_capacity=64)  # single leaf node
        res = TraversalEngine(tree, ps, BarnesHutMAC(0.7)).compute(
            ps.positions, MonopoleExpansion(tree),
            count_node_interactions=True)
        # 64 targets x 64 particles in the one leaf
        assert tree.interactions[0] == 64 * 64
        assert res.p2p_interactions == 64 * 64


class TestVirtualTimeDeterminism:
    """Bug 4: opportunistic (real-time-ordered) bin service made virtual
    clocks depend on host thread scheduling."""

    def test_force_phase_times_reproducible(self):
        ps = plummer(600, seed=105)
        cfg = SchemeConfig(scheme="spda", mode="force", grid_level=3)
        times = [
            ParallelBarnesHut(ps, cfg, p=8, profile=NCUBE2).run()
            .parallel_time
            for _ in range(3)
        ]
        assert times[0] == times[1] == times[2]
