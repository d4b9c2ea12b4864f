"""Tests for the data-shipping (hashed octree) baseline."""

import numpy as np
import pytest

from repro.bh.direct import direct_potentials
from repro.bh.distributions import plummer
from repro.bh.multipole import MonopoleExpansion
from repro.bh.tree import build_tree
from repro.core.config import SchemeConfig
from repro.core.data_shipping import DataShippingEngine, HashedOctreeCache, \
    CachedNode
from repro.core.partition import Cell
from repro.core.tree_build import assign_to_cells, build_local_trees, \
    local_branch_infos
from repro.core.tree_merge import merge_broadcast
from repro.machine.engine import Engine
from repro.machine.profiles import NCUBE2, ZERO_COST

PS = plummer(500, seed=11)
ROOT = PS.bounding_box()
BITS = 10
PD = direct_potentials(PS)


def run_data_shipping(p, degree=0, alpha=0.67, profile=ZERO_COST):
    cells_per = 8 // p

    def main(comm):
        cells = [Cell(1, comm.rank * cells_per + j)
                 for j in range(cells_per)]
        slots = assign_to_cells(PS.positions, cells, ROOT, BITS)
        mine = PS.subset(slots >= 0)
        cfg = SchemeConfig(mode="potential", alpha=alpha, degree=degree)
        subs = build_local_trees(mine, cells, ROOT, cfg, BITS)
        infos = local_branch_infos(subs, comm.rank, ROOT, degree)
        top = merge_broadcast(comm, infos, ROOT, degree)
        eng = DataShippingEngine(comm, cfg, top, subs, mine)
        vals = eng.run()
        return mine.ids, vals, eng.stats

    rep = Engine(p, profile, recv_timeout=120.0).run(main)
    all_vals = np.zeros(PS.n)
    for ids, vals, _ in rep.values:
        all_vals[ids] = vals
    return all_vals, [v[2] for v in rep.values], rep


class TestCache:
    def _node(self, key, **kw):
        base = dict(key=key, owner=0, mass=1.0, com=np.zeros(3),
                    center=np.zeros(3), half=1.0, count=1, is_leaf=False)
        base.update(kw)
        return CachedNode(**base)

    def test_put_get(self):
        c = HashedOctreeCache()
        c.put(self._node(5))
        assert c.get(5).key == 5
        assert c.get(6) is None
        assert len(c) == 1

    def test_merge_keeps_summary_stable(self):
        """Re-fetching a node must not change its MAC geometry."""
        c = HashedOctreeCache()
        c.put(self._node(5, half=2.0, mass=3.0))
        c.put(self._node(5, half=0.5, mass=9.0, children_known=True,
                         child_keys=[40, 41]))
        got = c.get(5)
        assert got.half == 2.0
        assert got.mass == 3.0
        assert got.children_known
        assert got.child_keys == [40, 41]

    def test_merge_adds_leaf_payload(self):
        c = HashedOctreeCache()
        c.put(self._node(5))
        c.put(self._node(5, positions=np.zeros((3, 3)), masses=np.ones(3)))
        assert c.get(5).positions.shape == (3, 3)
        assert c.get(5).is_leaf

    def test_access_counter(self):
        c = HashedOctreeCache()
        c.put(self._node(1))
        c.get(1)
        c.get(2)
        assert c.accesses == 3


class TestDataShippingCorrectness:
    @pytest.mark.parametrize("p", [1, 2, 4])
    def test_matches_direct_within_treecode_error(self, p):
        vals, _, _ = run_data_shipping(p)
        err = np.linalg.norm(vals - PD) / np.linalg.norm(PD)
        assert err < 5e-3

    def test_result_independent_of_p(self):
        v1, _, _ = run_data_shipping(1)
        v4, _, _ = run_data_shipping(4)
        np.testing.assert_allclose(v1, v4, atol=1e-10)

    def test_multipole_more_accurate(self):
        v0, _, _ = run_data_shipping(4, degree=0)
        v3, _, _ = run_data_shipping(4, degree=3)
        assert (np.linalg.norm(v3 - PD) < np.linalg.norm(v0 - PD))


class TestSection42Signals:
    def test_fetch_volume_grows_with_degree(self):
        """The paper's 4.2.1 claim: data-shipping communication volume is
        Theta(k^2) in the multipole degree."""
        _, s2, _ = run_data_shipping(4, degree=2)
        _, s5, _ = run_data_shipping(4, degree=5)
        b2 = sum(s.fetch_bytes for s in s2)
        b5 = sum(s.fetch_bytes for s in s5)
        assert b5 > b2

    def test_looser_mac_fetches_less(self):
        _, tight, _ = run_data_shipping(4, alpha=0.5)
        _, loose, _ = run_data_shipping(4, alpha=1.2)
        assert sum(s.nodes_fetched for s in loose) < \
            sum(s.nodes_fetched for s in tight)

    def test_hash_accesses_counted(self):
        _, stats, _ = run_data_shipping(2)
        assert all(s.hash_accesses > 0 for s in stats)

    def test_cache_size_reported(self):
        _, stats, _ = run_data_shipping(2)
        assert all(s.cache_nodes > 8 for s in stats)

    def test_rounds_bounded_by_tree_depth(self):
        _, stats, _ = run_data_shipping(4)
        assert all(0 < s.fetch_rounds < 20 for s in stats)

    def test_virtual_time_charged(self):
        _, _, rep = run_data_shipping(4, profile=NCUBE2)
        assert rep.parallel_time > 0
        assert rep.phase_max()["force computation"] > 0


class TestSharedPasses:
    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_point_mass_pass_is_the_softened_monopole_evaluator(self, mode):
        """A round's accepted nodes are evaluated by the evaluator a
        local subtree's nodes use, softening included."""
        tree = build_tree(PS, leaf_capacity=8)
        rng = np.random.default_rng(5)
        nodes = rng.integers(0, tree.nnodes, 200)
        targets = 3.0 * rng.normal(size=(200, 3))
        eng = DataShippingEngine.__new__(DataShippingEngine)
        eng.config = SchemeConfig(mode=mode, softening=0.05)
        eng._dims = 3
        accepted = [
            (CachedNode(key=n, owner=0, mass=float(tree.mass[n]),
                        com=tree.com[n], center=tree.center[n],
                        half=float(tree.half[n]), count=tree.count(n),
                        is_leaf=False), np.flatnonzero(nodes == n))
            for n in range(tree.nnodes)]
        values = np.zeros((200, 3) if mode == "force" else 200)
        eng._evaluate_round(values, targets, accepted, [])
        ev = MonopoleExpansion(tree, softening=0.05)
        want = (ev.batch_force if mode == "force"
                else ev.batch_potential)(nodes, targets)
        # one pair per target: the accumulation adds to zero exactly
        np.testing.assert_array_equal(values, want)
