"""The batched forest build equals one oracle build per cell, exactly.

``build_local_trees`` builds all of a rank's owned-cell subtrees in one
level-synchronous pass (``repro.bh.tree.build_forest``).  These tests
hold it to the per-cell recipe it replaced — scan the cell's members,
slice their keys, run the recursive builder of ``tests/oracles/tree.py``
on the cell alone — in every array element, dtype and list position;
and hold the block-timestep refresh, which sends only its rebuild-set
through the same builder, to a full forest build of the same particles.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import ParallelBarnesHut, SchemeConfig
from repro.bh.distributions import plummer
from repro.bh.morton import MAX_BITS_3D, morton_keys
from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import Box, ParticleSet
from repro.core.branch_nodes import branch_key
from repro.core.forest import build_forest, refresh_forest
from repro.core.partition import Cell, cover_cells
from repro.core.simulation import _RankState
from repro.core.tree_build import assign_to_cells, build_local_trees
from repro.machine.engine import Engine
from repro.machine.profiles import NCUBE2
from tests.helpers import uniform_cube
from tests.oracles.tree import build_tree_reference
from tests.oracles.upward import build_multipoles_reference

TREE_ARRAYS = ("children", "depth", "path_key", "center", "half", "start",
               "end", "order", "mass", "com", "interactions",
               "remote_owner", "remote_key")
PARTICLE_ARRAYS = ("positions", "masses", "velocities", "ids")


def grid_cells(level: int, dims: int) -> list[Cell]:
    return [Cell(level, k) for k in range(1 << (dims * level))]


def oracle_subtrees(particles, cells, root, cfg, bits):
    """The per-cell loop ``build_local_trees`` used to be, over the
    recursive builder and the per-node upward scans."""
    dims = root.dims
    keys = morton_keys(particles.positions, root.lo, root.side, bits)
    slots = assign_to_cells(particles.positions, cells, root, bits,
                            keys=keys)
    out = []
    for i, cell in enumerate(cells):
        idx = np.flatnonzero(slots == i)
        if idx.size == 0:
            continue
        sub = particles.subset(idx)
        budget = max(1, (cfg.max_depth if cfg.max_depth is not None
                         else bits) - cell.depth)
        rem = bits - cell.depth
        sub_keys = None
        if 0 < budget <= rem:
            mask = np.int64((1 << (dims * rem)) - 1)
            sub_keys = (keys[idx] & mask) >> (dims * (rem - budget))
        tree = build_tree_reference(
            sub, box=cell.box(root), leaf_capacity=cfg.leaf_capacity,
            max_depth=budget, keys=sub_keys)
        coeffs = None
        if cfg.degree > 0:
            mp = TreeMultipoles(tree, None, cfg.degree)
            build_multipoles_reference(mp, sub)
            coeffs = mp.coeffs
        out.append((cell, idx, sub, tree, coeffs))
    return out


def assert_same_array(got, want, what):
    assert got.dtype == want.dtype, what
    np.testing.assert_array_equal(got, want, err_msg=what)


def assert_same_tree(got, want, what=""):
    assert got.nnodes == want.nnodes, what
    assert (got.dims, got.leaf_capacity, got.max_depth) \
        == (want.dims, want.leaf_capacity, want.max_depth), what
    np.testing.assert_array_equal(got.root_box.center, want.root_box.center)
    assert got.root_box.half == want.root_box.half
    for f in TREE_ARRAYS:
        assert_same_array(getattr(got, f), getattr(want, f), f"{what} {f}")


def assert_forest_equals_oracle(particles, cells, root, cfg, bits):
    got = build_local_trees(particles, cells, root, cfg, bits)
    want = oracle_subtrees(particles, cells, root, cfg, bits)
    assert [s.cell for s in got] == [w[0] for w in want]
    for s, (cell, idx, sub, tree, coeffs) in zip(got, want):
        what = f"cell {cell}"
        assert s.key == branch_key(cell, root.dims)
        assert_same_array(s.local_idx, idx, what)
        for f in PARTICLE_ARRAYS:
            assert_same_array(getattr(s.particles, f), getattr(sub, f),
                              f"{what} {f}")
        assert_same_tree(s.tree, tree, what)
        if coeffs is None:
            assert s.multipoles is None
        else:
            assert s.multipoles.tree is s.tree
            assert_same_array(s.multipoles.coeffs, coeffs, what)
    return got


def unit_root(dims=3):
    return Box(np.full(dims, 0.5), 0.5)


def in_unit_box(ps: ParticleSet) -> ParticleSet:
    """Rescale into (0, 1)^d, keeping the relative concentration."""
    lo, hi = ps.positions.min(axis=0), ps.positions.max(axis=0)
    pos = 0.01 + 0.98 * (ps.positions - lo) / (hi - lo).max()
    return ParticleSet(positions=pos, masses=ps.masses, ids=ps.ids)


class TestForestEqualsOracle:
    @pytest.mark.parametrize("cap", [1, 8])
    @pytest.mark.parametrize("level", [0, 1, 2, 3, 4])
    def test_plummer_grid(self, level, cap):
        """Level 4 is 4096 cells for 700 particles: mostly empty cells,
        the rest near-empty — the many-small-clusters design point."""
        ps = in_unit_box(plummer(700, seed=level + 1))
        cfg = SchemeConfig(mode="potential", degree=3, leaf_capacity=cap,
                           grid_level=level)
        assert_forest_equals_oracle(ps, grid_cells(level, 3), unit_root(),
                                    cfg, bits=12)

    def test_deep_keys(self):
        """20-bit keys, the deepest ``assign_to_cells`` takes (the key
        range of the last cell must fit int64)."""
        ps = in_unit_box(plummer(400, seed=2))
        for level in (0, 2):
            cfg = SchemeConfig(leaf_capacity=2, grid_level=level)
            assert_forest_equals_oracle(ps, grid_cells(level, 3),
                                        unit_root(), cfg, MAX_BITS_3D - 1)

    def test_max_depth_below_key_depth(self):
        ps = in_unit_box(plummer(900, seed=3))
        cfg = SchemeConfig(mode="potential", degree=3, leaf_capacity=1,
                           max_depth=6)
        got = assert_forest_equals_oracle(ps, grid_cells(2, 3), unit_root(),
                                          cfg, bits=12)
        assert {s.tree.max_depth for s in got} == {4}
        # the depth cap binds: some leaf holds more than the capacity
        assert any((s.tree.end - s.tree.start)[s.tree.leaves()].max() > 1
                   for s in got)

    def test_dpda_cover_cells_of_mixed_depth(self):
        """A DPDA rank owns a Morton key range, covered by cells of
        many depths — so subtrees of many different depth budgets
        refine side by side in one emission."""
        bits = 12
        ps = in_unit_box(plummer(1200, seed=4))
        root = unit_root()
        keys = morton_keys(ps.positions, root.lo, root.side, bits)
        lo, hi = np.sort(keys)[[150, 1050]]
        cells = cover_cells(int(lo) + 1, int(hi) + 3, bits, 3)
        depths = {c.depth for c in cells}
        assert min(depths) <= 1 and max(depths) >= 11
        mine = ps.subset((keys > lo) & (keys < hi + 3))
        cfg = SchemeConfig(scheme="dpda", mode="potential", degree=3,
                           leaf_capacity=4)
        got = assert_forest_equals_oracle(mine, cells, root, cfg, bits)
        assert len({s.tree.max_depth for s in got}) > 3

    def test_coincident_particles(self):
        rng = np.random.default_rng(7)
        sites = rng.uniform(0.1, 0.9, (10, 3))
        ps = ParticleSet(positions=np.repeat(sites, 30, axis=0),
                         masses=rng.uniform(0.5, 1.5, 300))
        cfg = SchemeConfig(mode="potential", degree=3, leaf_capacity=8,
                           grid_level=1)
        assert_forest_equals_oracle(ps, grid_cells(1, 3), unit_root(), cfg,
                                    bits=12)

    def test_two_dimensional(self):
        ps = in_unit_box(uniform_cube(500, dims=2, seed=5))
        for level, cap in ((0, 8), (2, 1), (3, 4)):
            cfg = SchemeConfig(leaf_capacity=cap, grid_level=level)
            assert_forest_equals_oracle(ps, grid_cells(level, 2),
                                        unit_root(2), cfg, bits=14)

    def test_empty_and_one_particle_cells(self):
        rng = np.random.default_rng(8)
        pos = np.vstack([
            rng.uniform(0.02, 0.48, (60, 3)),           # octant 0
            [[0.75, 0.25, 0.25]],                       # octant 1: one
            rng.uniform(0.52, 0.98, (40, 3)),           # octant 7
        ])
        ps = ParticleSet(positions=pos, masses=np.ones(101))
        cfg = SchemeConfig(mode="potential", degree=3, leaf_capacity=4,
                           grid_level=1)
        got = assert_forest_equals_oracle(ps, grid_cells(1, 3), unit_root(),
                                          cfg, bits=10)
        assert [s.cell.path_key for s in got] == [0, 1, 7]
        assert [s.count for s in got] == [60, 1, 40]
        assert got[1].tree.nnodes == 1

    def test_no_key_budget_cells(self):
        """Cells at the key depth have no key bits left: each keeps a
        lone ``build_tree`` over its own box, between batched cells."""
        bits = 3
        root = unit_root()
        cells = cover_cells(3, 200, bits, 3)
        at_key_depth = [c for c in cells if c.depth == bits]
        assert at_key_depth and len(at_key_depth) < len(cells)
        crowded = at_key_depth[0].box(root)     # more than one leaf's worth
        rng = np.random.default_rng(9)
        pos = np.vstack([
            in_unit_box(uniform_cube(400, seed=9)).positions,
            crowded.center + rng.uniform(-0.9, 0.9, (7, 3)) * crowded.half,
        ])
        ps = ParticleSet(positions=pos, masses=np.ones(407))
        keys = morton_keys(ps.positions, root.lo, root.side, bits)
        mine = ps.subset((keys >= 3) & (keys < 200))
        cfg = SchemeConfig(scheme="dpda", leaf_capacity=2)
        got = assert_forest_equals_oracle(mine, cells, root, cfg, bits)
        assert any(s.cell.depth == bits and s.tree.nnodes > 1 for s in got)

    def test_no_owned_particles(self):
        cfg = SchemeConfig()
        assert build_local_trees(ParticleSet.empty(3), grid_cells(1, 3),
                                 unit_root(), cfg, 8) == []

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 300), level=st.integers(0, 3),
           cap=st.integers(1, 16),
           max_depth=st.one_of(st.none(), st.integers(1, 10)),
           seed=st.integers(0, 2 ** 16))
    def test_drawn_shapes(self, n, level, cap, max_depth, seed):
        ps = in_unit_box(plummer(n, seed=seed)) if n > 1 else ParticleSet(
            positions=np.array([[0.3, 0.6, 0.2]]), masses=np.ones(1))
        cfg = SchemeConfig(mode="potential", degree=3, leaf_capacity=cap,
                           grid_level=level, max_depth=max_depth)
        assert_forest_equals_oracle(ps, grid_cells(level, 3), unit_root(),
                                    cfg, bits=10)


# ------------------------------------------- block-timestep rebuild-set

BLOCK = dict(scheme="spsa", mode="force", alpha=0.8, softening=0.05,
             integrator="kdk", timestep="block", max_rungs=3, dt_eta=0.3,
             grid_level=2, leaf_capacity=4)


def _refresh_vs_build(comm, cfg, root, bits, shard):
    """Build a forest, move particles so that some owned cells change
    membership, some only jiggle and the rest stay frozen; then refresh
    the forest and, separately, build it from scratch."""
    state = _RankState(comm, cfg, root, bits, shard)
    cells = state.decompose(0)
    forest = build_forest(state, cells)
    by_count = sorted(forest.subtrees, key=lambda s: -s.count)
    donor, taker, jiggled = by_count[0], by_count[1], by_count[2]
    pos = state.particles.positions
    hop = donor.local_idx[:3]                   # into another owned cell
    pos[hop] = pos[taker.local_idx[:3]] + 1e-7
    jiggle = jiggled.local_idx[:2]              # stays in its cell
    pos[jiggle] += 1e-9
    starters = np.sort(np.concatenate([hop, jiggle]))
    state.keys = None

    def snapshot(f):
        return [(s.key, s.local_idx.copy(), s.particles, s.tree)
                for s in f.subtrees]

    refreshed = snapshot(refresh_forest(state, forest, cells, starters))
    counters = {name: comm.metrics.counter(name).value
                for name in ("repair.full_rebuilds", "repair.repairs",
                             "repair.nodes_reused")}
    rebuilt = snapshot(build_forest(state, cells))
    return refreshed, rebuilt, counters, len(by_count)


def test_refresh_rebuild_set_equals_full_build():
    cfg = SchemeConfig(**BLOCK)
    sim = ParallelBarnesHut(plummer(480, seed=5), cfg, p=2, bits=10)
    report = Engine(2, NCUBE2, recv_timeout=60.0).run(
        _refresh_vs_build, cfg, sim.root, sim.bits,
        rank_args=[(shard,) for shard in sim._shards()])
    for refreshed, rebuilt, counters, ncells in report.values:
        assert ncells > 3
        # donor and taker changed membership (rebuilt together), the
        # jiggled cell is under the repair threshold (lone rebuild
        # inside repair_tree), everything else is reused untouched
        assert counters["repair.full_rebuilds"] == 3
        assert counters["repair.repairs"] == 0
        assert counters["repair.nodes_reused"] > 0
        assert [r[0] for r in refreshed] == [b[0] for b in rebuilt]
        for (key, idx, sub, tree), (_, idx2, sub2, tree2) in zip(refreshed,
                                                                 rebuilt):
            assert_same_array(idx, idx2, f"branch {key}")
            for f in PARTICLE_ARRAYS:
                assert_same_array(getattr(sub, f), getattr(sub2, f),
                                  f"branch {key} {f}")
            assert_same_tree(tree, tree2, f"branch {key}")
