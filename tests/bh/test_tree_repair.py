"""Tree repair must be bitwise-exactly a full rebuild (ISSUE 9)."""

import numpy as np
import pytest

from repro.bh.distributions import plummer
from repro.bh.morton import morton_keys
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import build_tree
from repro.bh.tree_repair import repair_tree, subtree_extents

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
    def test_restricted_monopole_pass_is_noop_when_valid(self):
        ps, box = make_state(500, 3)
        tree = build_tree(ps, box=box, leaf_capacity=8)
        mass0, com0 = tree.mass.copy(), tree.com.copy()
        tree.compute_monopoles(ps, nodes=np.arange(tree.nnodes))
        assert np.array_equal(tree.mass, mass0)
        assert np.array_equal(tree.com, com0)
