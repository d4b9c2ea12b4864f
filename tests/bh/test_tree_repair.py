"""Tree repair must be bitwise-exactly a full rebuild (ISSUE 9)."""

import numpy as np
import pytest

from repro.bh.distributions import plummer
from repro.bh.morton import morton_keys
from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import build_tree
from repro.bh.tree_repair import (RepairResult, refresh_multipoles,
                                  repair_tree, subtree_extents)

BITS = {2: 12, 3: 10}


def make_state(n, d, seed=0, clustered=False):
    rng = np.random.default_rng(seed)
    if clustered:
        ps = plummer(n, seed=seed) if d == 3 else None
    if not clustered or ps is None:
        ps = ParticleSet(positions=rng.uniform(-0.9, 0.9, (n, d)),
                         masses=rng.uniform(0.5, 1.5, n))
    box = Box(np.zeros(d), float(np.abs(ps.positions).max()) * 1.5 + 1.0)
    return ps, box


def keys_of(ps, box, bits):
    return morton_keys(ps.positions, box.lo, box.side, bits)


def perturb(ps, box, seed, frac=0.1, scale=0.05, jump_frac=0.3):
    """Move ``frac`` of the particles; of those, ``jump_frac`` jump to a
    random spot (guaranteed key churn), the rest jiggle locally."""
    rng = np.random.default_rng(seed)
    n = ps.n
    moved = rng.choice(n, size=max(1, int(frac * n)), replace=False)
    moved.sort()
    pos = ps.positions.copy()
    njump = int(jump_frac * moved.size)
    jump, jiggle = moved[:njump], moved[njump:]
    pos[jump] = rng.uniform(box.lo + 0.01, box.lo + box.side - 0.01,
                            (jump.size, ps.dims))
    pos[jiggle] += rng.normal(0.0, scale * box.half, (jiggle.size, ps.dims))
    np.clip(pos, box.lo + 1e-9, box.lo + box.side - 1e-9, out=pos)
    return ParticleSet(positions=pos, masses=ps.masses), moved


def assert_trees_equal(a, b):
    assert a.nnodes == b.nnodes
    for f in ("children", "depth", "path_key", "start", "end", "order"):
        np.testing.assert_array_equal(getattr(a, f), getattr(b, f), err_msg=f)
    for f in ("center", "half", "mass", "com"):
        x, y = getattr(a, f), getattr(b, f)
        assert np.array_equal(x, y), f"{f} differs"


def roundtrip(n, d, cap, collapse, seed=0, frac=0.1, scale=0.05,
              clustered=False, jump_frac=0.3):
    ps, box = make_state(n, d, seed, clustered)
    bits = BITS[d]
    k0 = keys_of(ps, box, bits)
    tree = build_tree(ps, box=box, leaf_capacity=cap, max_depth=bits,
                      collapse_chains=collapse, keys=k0)
    ps2, moved = perturb(ps, box, seed + 1, frac, scale, jump_frac)
    k1 = keys_of(ps2, box, bits)
    res = repair_tree(tree, ps2, k0, k1, moved, collapse_chains=collapse)
    oracle = build_tree(ps2, box=box, leaf_capacity=cap, max_depth=bits,
                        collapse_chains=collapse, keys=k1)
    assert_trees_equal(res.tree, oracle)
    return tree, ps2, res, oracle


class TestRepairExactEquality:
    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("cap", [1, 8, 32])
    @pytest.mark.parametrize("collapse", [True, False])
    def test_matches_full_rebuild(self, d, cap, collapse):
        roundtrip(600, d, cap, collapse)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_seeds_3d(self, seed):
        roundtrip(500, 3, 8, True, seed=seed, frac=0.2)

    def test_clustered_plummer(self):
        roundtrip(800, 3, 8, True, clustered=True, frac=0.05)

    def test_all_jumps(self):
        roundtrip(400, 2, 4, True, frac=0.15, jump_frac=1.0)

    def test_local_jiggles_only(self):
        roundtrip(400, 3, 8, True, frac=0.2, jump_frac=0.0, scale=0.02)

    def test_large_dirty_fraction_falls_back(self):
        ps, box = make_state(600, 3)
        k0 = keys_of(ps, box, BITS[3])
        tree = build_tree(ps, box=box, leaf_capacity=8, max_depth=BITS[3],
                          keys=k0)
        ps2, moved = perturb(ps, box, 7, frac=0.9, jump_frac=1.0)
        k1 = keys_of(ps2, box, BITS[3])
        res = repair_tree(tree, ps2, k0, k1, moved)
        assert res.rebuilt
        oracle = build_tree(ps2, box=box, leaf_capacity=8,
                            max_depth=BITS[3], keys=k1)
        assert_trees_equal(res.tree, oracle)

    def test_tiny_trees_rebuild_outright(self):
        """One moved particle: repaired from 128 particles up, rebuilt
        below (``tree_repair``'s own small-tree threshold)."""
        assert [roundtrip(n, 3, 8, True, frac=0.0)[2].rebuilt
                for n in (127, 128)] == [True, False]

    def test_no_key_change_refreshes_monopoles(self):
        ps, box = make_state(500, 3)
        bits = BITS[3]
        k0 = keys_of(ps, box, bits)
        tree = build_tree(ps, box=box, leaf_capacity=8, max_depth=bits,
                          keys=k0)
        # perturb, then revert every particle whose key changed: movers
        # remain but the key set is untouched
        ps2, moved = perturb(ps, box, 3, frac=0.3, jump_frac=0.0,
                             scale=0.01)
        k1 = keys_of(ps2, box, bits)
        pos = ps2.positions.copy()
        pos[k1 != k0] = ps.positions[k1 != k0]
        ps2 = ParticleSet(positions=pos, masses=ps.masses)
        k1 = keys_of(ps2, box, bits)
        assert np.array_equal(k0, k1)
        res = repair_tree(tree, ps2, k0, k1, moved)
        assert not res.rebuilt and res.nodes_rebuilt == 0
        oracle = build_tree(ps2, box=box, leaf_capacity=8, max_depth=bits,
                            keys=k1)
        assert_trees_equal(res.tree, oracle)

    def test_reuses_nodes(self):
        _, _, res, oracle = roundtrip(2000, 3, 8, True, frac=0.02)
        assert res.nodes_reused > 0
        assert res.nodes_reused + res.nodes_rebuilt == oracle.nnodes


class TestRepairBookkeeping:
    def test_id_map_points_at_same_cells(self):
        old, _, res, _ = roundtrip(800, 3, 8, True, frac=0.1)
        new = res.tree
        mapped = np.flatnonzero(res.id_map >= 0)
        tgt = res.id_map[mapped]
        np.testing.assert_array_equal(old.depth[mapped], new.depth[tgt])
        np.testing.assert_array_equal(old.path_key[mapped],
                                      new.path_key[tgt])
        assert np.array_equal(old.center[mapped], new.center[tgt])
        assert np.array_equal(old.half[mapped], new.half[tgt])

    def test_value_dirty_is_sound(self):
        """Every mapped node whose stored monopole differs in the new
        tree must be flagged value-dirty (no false negatives)."""
        old, _, res, _ = roundtrip(800, 3, 8, True, frac=0.1)
        new = res.tree
        mapped = np.flatnonzero(res.id_map >= 0)
        tgt = res.id_map[mapped]
        differs = (old.mass[mapped] != new.mass[tgt]) \
            | (old.com[mapped] != new.com[tgt]).any(axis=1)
        assert np.array_equal(res.value_dirty[mapped], differs)

    def test_children_and_count_flags(self):
        old, _, res, _ = roundtrip(800, 3, 8, True, frac=0.15)
        new = res.tree
        mapped = np.flatnonzero(res.id_map >= 0)
        for o in mapped[:: max(1, mapped.size // 200)]:
            nid = res.id_map[o]
            oc = old.children[o]
            nc = new.children[nid]
            ocells = {(int(old.depth[c]), int(old.path_key[c]), s)
                      for s, c in enumerate(oc) if c >= 0}
            ncells = {(int(new.depth[c]), int(new.path_key[c]), s)
                      for s, c in enumerate(nc) if c >= 0}
            assert res.children_changed[o] == (ocells != ncells)
            assert res.count_changed[o] == (old.count(int(o))
                                            != new.count(int(nid)))

    def test_subtree_extents(self):
        ps, box = make_state(400, 3)
        tree = build_tree(ps, box=box, leaf_capacity=4)
        ext = subtree_extents(tree)

        def span(node):
            hi = node + 1
            for c in tree.children[node]:
                if c >= 0:
                    hi = max(hi, span(int(c)))
            return hi

        for node in range(tree.nnodes):
            assert ext[node] == span(node)


class TestIncrementalMultipoles:
    @pytest.mark.parametrize("degree", [0, 2])
    def test_refresh_matches_full_build(self, degree):
        old, ps2, res, oracle = roundtrip(600, 3, 8, True, frac=0.1)
        mp_old = TreeMultipoles(old, None, degree)
        # build from the *pre-perturbation* particles the old tree saw
        ps0, box = make_state(600, 3)
        mp_old._build(ps0)
        mp_new = refresh_multipoles(mp_old, res, ps2)
        mp_oracle = TreeMultipoles(oracle, ps2, degree)
        assert np.array_equal(mp_new.coeffs, mp_oracle.coeffs)

    def test_refresh_after_full_rebuild_fallback(self):
        ps, box = make_state(600, 3)
        k0 = keys_of(ps, box, BITS[3])
        tree = build_tree(ps, box=box, leaf_capacity=8, max_depth=BITS[3],
                          keys=k0)
        mp_old = TreeMultipoles(tree, ps, 1)
        ps2, moved = perturb(ps, box, 5, frac=0.9, jump_frac=1.0)
        k1 = keys_of(ps2, box, BITS[3])
        res = repair_tree(tree, ps2, k0, k1, moved)
        assert res.rebuilt
        mp_new = refresh_multipoles(mp_old, res, ps2)
        mp_oracle = TreeMultipoles(res.tree, ps2, 1)
        assert np.array_equal(mp_new.coeffs, mp_oracle.coeffs)

    @pytest.mark.parametrize("degree", [1, 3])
    def test_no_stale_m2p_table_survives_a_coefficient_write(self, degree):
        """``batch_potential`` reads a table derived from ``coeffs``;
        evaluating *before* a refresh must not pin the old table."""
        old, ps2, res, oracle = roundtrip(600, 3, 8, True, frac=0.1)
        ps0, _ = make_state(600, 3)
        rng = np.random.default_rng(4)

        def probe(mp):
            nodes = rng.integers(0, mp.tree.nnodes, 200)
            far = mp.tree.center[nodes] + 3.0 * mp.tree.half[nodes, None] \
                + rng.uniform(0.1, 1.0, (200, 3))
            return nodes, far

        # refresh(): same tree, the dirty rows rebuilt over moved particles
        mp = TreeMultipoles(old, ps0, degree)
        nodes, far = probe(mp)
        before = mp.batch_potential(nodes, far)
        ps_moved = ParticleSet(ps0.positions * 0.97, ps0.masses)
        mp.refresh(ps_moved, np.arange(old.nnodes))
        fresh = TreeMultipoles(old, ps_moved, degree)
        assert np.array_equal(mp.coeffs, fresh.coeffs)
        after = mp.batch_potential(nodes, far)
        assert np.array_equal(after, fresh.batch_potential(nodes, far))
        assert not np.array_equal(after, before)

        # refresh_multipoles(): a new object carried across a repair
        mp_old = TreeMultipoles(old, ps0, degree)
        mp_old.batch_potential(*probe(mp_old))
        mp_new = refresh_multipoles(mp_old, res, ps2)
        nodes, far = probe(mp_new)
        assert np.array_equal(
            mp_new.batch_potential(nodes, far),
            TreeMultipoles(oracle, ps2, degree).batch_potential(nodes, far))

    def test_restricted_monopole_pass_is_noop_when_valid(self):
        ps, box = make_state(500, 3)
        tree = build_tree(ps, box=box, leaf_capacity=8)
        mass0, com0 = tree.mass.copy(), tree.com.copy()
        tree.compute_monopoles(ps, nodes=np.arange(tree.nnodes))
        assert np.array_equal(tree.mass, mass0)
        assert np.array_equal(tree.com, com0)
