"""Walk-cache invalidation and target-subset evaluation (ISSUE 9).

Acceptance contract: invalidation-surviving walks produce values within
1e-12 of a fresh walk over the repaired tree, with *exactly* equal
interaction counters; subset evaluation matches a fresh subset walk the
same way.
"""

import numpy as np
import pytest

from repro.bh.interaction_lists import (TraversalEngine,
                                        build_interaction_lists,
                                        evaluate_interaction_lists,
                                        subset_interaction_lists)
from repro.bh.mac import BarnesHutMAC
from repro.bh.morton import morton_keys
from repro.bh.multipole import MonopoleExpansion
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import build_tree
from repro.bh.tree_repair import repair_tree

BITS = 10


def make(n=800, seed=0, d=3):
    rng = np.random.default_rng(seed)
    ps = ParticleSet(positions=rng.uniform(-1.0, 1.0, (n, d)),
                     masses=rng.uniform(0.5, 1.5, n))
    box = Box(np.zeros(d), 2.0)
    return ps, box


def counters(r):
    return (r.mac_tests, r.cluster_interactions, r.p2p_interactions)


class TestSubsetEvaluation:
    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_subset_matches_fresh_subset_walk(self, mode):
        ps, box = make()
        tree = build_tree(ps, box=box, leaf_capacity=8)
        mac = BarnesHutMAC(alpha=1.2)
        idx = np.sort(np.random.default_rng(1).choice(ps.n, 150,
                                                      replace=False))
        full = build_interaction_lists(tree, ps.positions, mac)
        sub = subset_interaction_lists(full, idx)
        ev = MonopoleExpansion(tree)
        got = evaluate_interaction_lists(tree, sub, ps, ev, mode=mode)
        fresh_lists = build_interaction_lists(tree, ps.positions[idx],
                                              mac)
        want = evaluate_interaction_lists(tree, fresh_lists, ps, ev,
                                          mode=mode)
        assert counters(got) == counters(want)
        np.testing.assert_allclose(got.values, want.values,
                                   rtol=1e-12, atol=1e-12)

    def test_subset_weights_and_node_counts_match(self):
        ps, box = make()
        tree = build_tree(ps, box=box, leaf_capacity=8)
        tree2 = build_tree(ps, box=box, leaf_capacity=8)
        mac = BarnesHutMAC(alpha=1.0)
        idx = np.arange(0, ps.n, 3)
        full = build_interaction_lists(tree, ps.positions, mac)
        sub = subset_interaction_lists(full, idx)
        ev = MonopoleExpansion(tree)
        w_sub = np.zeros(idx.size)
        evaluate_interaction_lists(tree, sub, ps, ev, mode="force",
                                   count_node_interactions=True,
                                   target_weights=w_sub)
        fresh = build_interaction_lists(tree2, ps.positions[idx], mac)
        ev2 = MonopoleExpansion(tree2)
        w_fresh = np.zeros(idx.size)
        evaluate_interaction_lists(tree2, fresh, ps, ev2, mode="force",
                                   count_node_interactions=True,
                                   target_weights=w_fresh)
        np.testing.assert_array_equal(w_sub, w_fresh)
        np.testing.assert_array_equal(tree.interactions, tree2.interactions)


def _repair_engine(n=1200, seed=0, mover_lo=-1.0, mover_hi=-0.6,
                   target_lo=0.5, target_hi=1.0, nmove=30, alpha=1.2):
    """Build an engine + cached walk over targets in one corner, then
    move particles in a (possibly distant) region and repair."""
    ps, box = make(n, seed)
    k0 = morton_keys(ps.positions, box.lo, box.side, BITS)
    tree = build_tree(ps, box=box, leaf_capacity=8, max_depth=BITS,
                      keys=k0)
    mac = BarnesHutMAC(alpha=alpha)
    engine = TraversalEngine(tree, sources=ps, mac=mac)
    tsel = np.flatnonzero((ps.positions > target_lo).all(axis=1))
    targets = ps.positions[tsel].copy()
    base = engine.compute(targets, MonopoleExpansion(tree), mode="force")

    rng = np.random.default_rng(seed + 1)
    movers = np.flatnonzero((ps.positions < mover_hi).all(axis=1))[:nmove]
    pos = ps.positions.copy()
    pos[movers] = rng.uniform(mover_lo, mover_hi, (movers.size, 3))
    ps2 = ParticleSet(positions=pos, masses=ps.masses)
    k1 = morton_keys(ps2.positions, box.lo, box.side, BITS)
    res = repair_tree(tree, ps2, k0, k1, movers)
    assert not res.rebuilt
    engine.apply_repair(res, sources=ps2)
    return engine, ps2, targets, res, base


class TestApplyRepair:
    def test_distant_movers_walk_survives(self):
        engine, ps2, targets, res, _ = _repair_engine()
        before = engine.walks_built
        got = engine.compute(targets, MonopoleExpansion(engine.tree),
                             mode="force")
        assert engine.walks_built == before      # cache hit, no new walk
        assert engine.walks_retained == 1
        fresh = TraversalEngine(res.tree, sources=ps2, mac=engine.mac)
        want = fresh.compute(targets, MonopoleExpansion(res.tree),
                             mode="force")
        assert counters(got) == counters(want)
        np.testing.assert_allclose(got.values, want.values,
                                   rtol=1e-12, atol=1e-12)

    def test_movers_near_targets_evict(self):
        # movers jump right into the target corner: structure the walk
        # descended through changes, so the cached walk must die
        engine, ps2, targets, res, _ = _repair_engine(
            mover_lo=0.6, mover_hi=0.95)
        assert engine.walks_retained == 0
        assert engine.walks_invalidated == 1
        before = engine.walks_built
        got = engine.compute(targets, MonopoleExpansion(engine.tree),
                             mode="force")
        assert engine.walks_built == before + 1  # fresh walk
        fresh = TraversalEngine(res.tree, sources=ps2, mac=engine.mac)
        want = fresh.compute(targets, MonopoleExpansion(res.tree),
                             mode="force")
        assert counters(got) == counters(want)
        np.testing.assert_array_equal(got.values, want.values)

    def test_full_rebuild_clears_cache(self):
        ps, box = make(600)
        k0 = morton_keys(ps.positions, box.lo, box.side, BITS)
        tree = build_tree(ps, box=box, leaf_capacity=8, max_depth=BITS,
                          keys=k0)
        engine = TraversalEngine(tree, sources=ps,
                                 mac=BarnesHutMAC(alpha=1.0))
        engine.compute(ps.positions[:50], MonopoleExpansion(tree))
        rng = np.random.default_rng(9)
        pos = rng.uniform(-1, 1, ps.positions.shape)
        ps2 = ParticleSet(positions=pos, masses=ps.masses)
        k1 = morton_keys(pos, box.lo, box.side, BITS)
        res = repair_tree(tree, ps2, k0, k1, np.arange(ps.n))
        assert res.rebuilt
        engine.apply_repair(res, sources=ps2)
        assert len(engine._cache) == 0
        assert engine.walks_invalidated == 1

    def test_surviving_walk_tracks_new_monopoles(self):
        """A surviving walk must *not* serve stale values: monopole data
        is gathered at eval time from the repaired tree."""
        engine, ps2, targets, res, base = _repair_engine(nmove=60)
        got = engine.compute(targets, MonopoleExpansion(engine.tree),
                             mode="force")
        # movers changed distant mass distribution -> values moved
        assert not np.array_equal(got.values, base.values)

    def test_subset_of_surviving_walk(self):
        engine, ps2, targets, res, _ = _repair_engine()
        idx = np.arange(0, targets.shape[0], 2)
        got = engine.compute(targets, MonopoleExpansion(engine.tree),
                             mode="force", target_subset=idx)
        fresh = TraversalEngine(res.tree, sources=ps2, mac=engine.mac)
        want = fresh.compute(targets[idx], MonopoleExpansion(res.tree),
                             mode="force")
        assert counters(got) == counters(want)
        np.testing.assert_allclose(got.values, want.values,
                                   rtol=1e-12, atol=1e-12)

    def test_walks_record_decisions(self):
        ps, box = make(400)
        tree = build_tree(ps, box=box, leaf_capacity=8)
        lists = build_interaction_lists(tree, ps.positions[:64],
                                        BarnesHutMAC(alpha=1.0))
        assert lists.tested_node.size == lists.mac_tests
        assert lists.tested_ok.size == lists.mac_tests
        # accepted pairs are exactly the ok-flagged tested pairs
        acc = {(int(n), int(t)) for n, t
               in zip(lists.tested_node[lists.tested_ok],
                      lists.tested_tgt[lists.tested_ok])}
        cl = {(int(n), int(t)) for n, t
              in zip(lists.cluster_node, lists.cluster_tgt)}
        assert acc == cl
