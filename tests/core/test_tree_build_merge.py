"""Tests for distributed tree construction and the top-tree merge."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh.distributions import plummer
from repro.bh.morton import morton_keys
from repro.bh.multipole import n_terms, regular_terms
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import Tree
from repro.core.branch_nodes import BranchInfo, branch_key
from repro.core.config import SchemeConfig
from repro.core.partition import Cell, cluster_keys, cover_cells
from repro.core.tree_build import (
    assign_to_cells,
    build_local_trees,
    local_branch_infos,
)
from repro.core.tree_merge import (
    MERGE_FLOPS_PER_TERM,
    _merge_flops,
    build_top_tree,
    merge_broadcast,
    merge_nonreplicated,
)
from repro.machine.engine import Engine
from repro.machine.profiles import ZERO_COST
from tests.helpers import uniform_cube
from tests.oracles.merge import (
    build_top_tree_reference,
    check_disjoint_reference,
    contains_cell,
)
from tests.oracles.upward import top_tree_coeffs_reference

ROOT = Box(np.array([0.5, 0.5, 0.5]), 0.5)
BITS = 8


def level1_cells():
    return [Cell(1, k) for k in range(8)]


class TestAssignToCells:
    def test_level1_octants(self):
        pos = np.array([[0.1, 0.1, 0.1], [0.9, 0.1, 0.1], [0.9, 0.9, 0.9]])
        slots = assign_to_cells(pos, level1_cells(), ROOT, BITS)
        assert slots.tolist() == [0, 1, 7]

    def test_outside_any_cell(self):
        pos = np.array([[0.6, 0.6, 0.6]])
        slots = assign_to_cells(pos, [Cell(1, 0)], ROOT, BITS)
        assert slots.tolist() == [-1]

    def test_no_cells(self):
        assert assign_to_cells(np.zeros((3, 3)) + 0.1, [], ROOT,
                               BITS).tolist() == [-1, -1, -1]

    def test_overlapping_cells_rejected(self):
        with pytest.raises(ValueError, match="overlap"):
            assign_to_cells(np.zeros((1, 3)) + 0.1,
                            [Cell(0, 0), Cell(1, 3)], ROOT, BITS)

    def test_mixed_depth_cells(self):
        cells = [Cell(1, 0), Cell(2, 8)]  # octant 0 and a sub-cell of oct 1
        pos = np.array([[0.2, 0.2, 0.2], [0.6, 0.1, 0.1]])
        slots = assign_to_cells(pos, cells, ROOT, BITS)
        assert slots[0] == 0
        assert slots[1] in (1, -1)


class TestBuildLocalTrees:
    def test_partition_of_particles(self):
        ps = uniform_cube(300, seed=0)
        cfg = SchemeConfig()
        subs = build_local_trees(ps, level1_cells(), ROOT, cfg, BITS)
        assert sum(st.count for st in subs) == 300
        ids = np.concatenate([st.particles.ids for st in subs])
        assert sorted(ids.tolist()) == list(range(300))

    def test_empty_cells_skipped(self):
        rng = np.random.default_rng(1)
        pos = rng.uniform(0.0, 0.49, (50, 3))  # all in octant 0
        ps = ParticleSet(positions=pos, masses=np.ones(50))
        subs = build_local_trees(ps, level1_cells(), ROOT, SchemeConfig(),
                                 BITS)
        assert len(subs) == 1
        assert subs[0].cell == Cell(1, 0)

    def test_small_cell_still_gets_tree(self):
        """A cell with fewer than s particles still produces a branch node
        at the cell's own level (the paper's 'tree adjustment')."""
        pos = np.array([[0.1, 0.1, 0.1]])
        ps = ParticleSet(positions=pos, masses=np.ones(1))
        subs = build_local_trees(ps, level1_cells(), ROOT,
                                 SchemeConfig(leaf_capacity=8), BITS)
        assert len(subs) == 1
        st = subs[0]
        assert st.tree.nnodes >= 1
        assert st.key == branch_key(Cell(1, 0), 3)

    def test_unowned_particle_rejected(self):
        ps = uniform_cube(10, seed=2)
        with pytest.raises(ValueError, match="outside all owned"):
            build_local_trees(ps, [Cell(1, 0)], ROOT, SchemeConfig(), BITS)

    def test_multipoles_built_when_degree_positive(self):
        ps = uniform_cube(100, seed=3)
        cfg = SchemeConfig(mode="potential", degree=3)
        subs = build_local_trees(ps, level1_cells(), ROOT, cfg, BITS)
        assert all(st.multipoles is not None for st in subs)

    def test_local_idx_maps_back(self):
        ps = uniform_cube(100, seed=4)
        subs = build_local_trees(ps, level1_cells(), ROOT, SchemeConfig(),
                                 BITS)
        for st in subs:
            np.testing.assert_array_equal(ps.ids[st.local_idx],
                                          st.particles.ids)


class TestBranchInfos:
    def test_monopole_summary(self):
        ps = uniform_cube(200, seed=5)
        subs = build_local_trees(ps, level1_cells(), ROOT, SchemeConfig(),
                                 BITS)
        infos = local_branch_infos(subs, rank=3, root=ROOT, degree=0)
        assert all(b.owner == 3 for b in infos)
        assert sum(b.count for b in infos) == 200
        assert sum(b.mass for b in infos) == pytest.approx(ps.total_mass)

    def test_multipole_shifted_to_cell_center(self):
        """The published expansion must be about the *cell* center even
        when chain collapsing moved the subtree root deeper."""
        rng = np.random.default_rng(6)
        pos = rng.uniform(0.01, 0.05, (40, 3))  # tight corner cluster
        ps = ParticleSet(positions=pos, masses=np.ones(40))
        cfg = SchemeConfig(mode="potential", degree=4)
        subs = build_local_trees(ps, level1_cells(), ROOT, cfg, BITS)
        infos = local_branch_infos(subs, rank=0, root=ROOT, degree=4)
        cell_center = Cell(1, 0).box(ROOT).center
        direct = ps.masses @ regular_terms(pos - cell_center, 4)
        np.testing.assert_allclose(infos[0].coeffs, direct, atol=1e-9)


class TestBuildTopTree:
    def _infos(self, ps, degree=0):
        subs = build_local_trees(ps, level1_cells(), ROOT,
                                 SchemeConfig(mode="potential",
                                              degree=degree), BITS)
        infos = []
        for i, st in enumerate(subs):
            part = local_branch_infos([st], rank=i % 4, root=ROOT,
                                      degree=degree)
            infos.extend(part)
        return infos

    def test_root_monopole(self):
        ps = uniform_cube(300, seed=7)
        top = build_top_tree(self._infos(ps), ROOT, degree=0)
        assert top.tree.mass[0] == pytest.approx(ps.total_mass)
        np.testing.assert_allclose(top.tree.com[0], ps.center_of_mass(),
                                   atol=1e-9)

    def test_branch_leaves_flagged_remote(self):
        ps = uniform_cube(300, seed=8)
        infos = self._infos(ps)
        top = build_top_tree(infos, ROOT, degree=0)
        for b in infos:
            [node] = np.flatnonzero(top.tree.remote_key == b.key)
            assert top.tree.is_remote(node)
            assert top.tree.remote_owner[node] == b.owner
            assert top.tree.count(node) == b.count

    def test_multipole_root_matches_direct(self):
        ps = uniform_cube(200, seed=9)
        top = build_top_tree(self._infos(ps, degree=4), ROOT, degree=4)
        direct = ps.masses @ regular_terms(ps.positions - ROOT.center, 4)
        np.testing.assert_allclose(top.multipoles.coeffs[0], direct,
                                   atol=1e-8)

    def test_varying_depth_branches(self):
        """DPDA-style: branch cells at different depths merge fine."""
        rng = np.random.default_rng(10)
        ps = ParticleSet(positions=rng.uniform(0, 1, (100, 3)),
                         masses=np.ones(100))
        cells = [Cell(1, k) for k in range(4)] + \
                [Cell(2, k) for k in range(32, 64)]
        subs = build_local_trees(ps, cells, ROOT, SchemeConfig(), BITS)
        infos = []
        for i, st in enumerate(subs):
            infos.extend(local_branch_infos([st], rank=i % 3, root=ROOT,
                                            degree=0))
        top = build_top_tree(infos, ROOT, degree=0)
        assert top.tree.mass[0] == pytest.approx(100.0)

    def test_overlapping_branches_rejected(self):
        ps = uniform_cube(100, seed=11)
        infos = self._infos(ps)
        bad = local_branch_infos(
            build_local_trees(ps, [Cell(0, 0)], ROOT, SchemeConfig(), BITS),
            rank=9, root=ROOT, degree=0)
        with pytest.raises(ValueError, match="overlap"):
            build_top_tree(infos + bad, ROOT, degree=0)

    def test_empty_branch_list_rejected(self):
        with pytest.raises(ValueError):
            build_top_tree([], ROOT, degree=0)

    def test_missing_coeffs_rejected(self):
        ps = uniform_cube(50, seed=12)
        infos = self._infos(ps, degree=0)
        with pytest.raises(ValueError, match="lacks multipole"):
            build_top_tree(infos, ROOT, degree=3)


class TestTopTreeUpwardPass:
    """``build_top_tree`` merges expansions with the shared batched
    ``m2m_upward``; the per-node, per-child scalar loop it replaced is
    the oracle, bit for bit."""

    CELLS = {
        "two_level": [Cell(2, k) for k in range(64)],
        "mixed_depth": [Cell(1, k) for k in range(4)]
        + [Cell(2, k) for k in range(32, 56)]
        + [Cell(3, k) for k in range(448, 512)],
    }

    @pytest.mark.parametrize("degree", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("shape", sorted(CELLS))
    def test_coeffs_equal_scalar_loop(self, shape, degree):
        ps = plummer(400, seed=20 + degree)
        ps = ParticleSet(0.5 + 0.08 * ps.positions.clip(-6, 6), ps.masses)
        cfg = SchemeConfig(mode="potential", degree=degree)
        subs = build_local_trees(ps, self.CELLS[shape], ROOT, cfg, BITS)
        infos = [b for i, sub in enumerate(subs) for b in
                 local_branch_infos([sub], rank=i % 5, root=ROOT,
                                    degree=degree)]
        top = build_top_tree(infos, ROOT, degree=degree)
        assert len({int(d) for d in top.tree.depth}) >= 3
        coeffs = top.multipoles.coeffs
        assert np.abs(coeffs[0]).max() > 0
        assert np.array_equal(coeffs, top_tree_coeffs_reference(top))


@st.composite
def dyadic_branch_sets(draw, plants=("none", "ancestor", "descendant",
                                     "duplicate"), dims=(2, 3)):
    """A shuffled set of disjoint dyadic cells (a random subset of the
    leaves of a random refinement), optionally with one planted
    ancestor, descendant or duplicate of a member, as branch summaries
    under their anchored keys: random owners, counts and masses (zeros
    included) and centers of mass inside the cell."""
    dims = draw(st.sampled_from(dims))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    leaves, frontier = [], [Cell(0, 0)]
    while frontier:
        c = frontier.pop()
        if c.depth < 4 and rng.random() < (0.9 if c.depth < 2 else 0.35):
            frontier += [Cell(c.depth + 1, (c.path_key << dims) | k)
                         for k in range(1 << dims)]
        else:
            leaves.append(c)
    keep = rng.random(len(leaves)) < 0.6
    keep[rng.integers(len(leaves))] = True
    cells = [c for c, k in zip(leaves, keep) if k]
    plant = draw(st.sampled_from(plants))
    victim = cells[rng.integers(len(cells))]
    if plant == "ancestor" and victim.depth > 0:
        up = int(rng.integers(1, victim.depth + 1))
        cells.append(Cell(victim.depth - up, victim.path_key >> (dims * up)))
    elif plant == "descendant":
        down = int(rng.integers(1, 3))
        cells.append(Cell(victim.depth + down,
                          (victim.path_key << (dims * down))
                          | int(rng.integers(1 << (dims * down)))))
    elif plant == "duplicate":
        cells.append(victim)
    rng.shuffle(cells)
    root = Box(np.full(dims, 0.5), 0.5)
    branches = []
    for c in cells:
        box = c.box(root)
        mass = 0.0 if rng.random() < 0.25 else float(rng.random())
        branches.append(BranchInfo(
            key=branch_key(c, dims), owner=int(rng.integers(7)), cell=c,
            count=int(rng.integers(0, 50)), mass=mass,
            com=box.center + box.half * rng.uniform(-1, 1, dims)))
    return branches, root


def _old_internal_count(branches, dims):
    """The strict ancestors of every branch cell, and the root."""
    cells = {(0, 0)}
    for b in branches:
        for up in range(1, b.cell.depth + 1):
            cells.add((b.cell.depth - up, b.cell.path_key >> (dims * up)))
    return len(cells)


def _index_contents(index):
    return (type(index), [id(b) for b in index],
            getattr(index, "n_buckets", None))


def assert_same_top_tree(top, ref):
    """Every ``Tree`` field bit for bit with its dtype, the merged
    coefficients and the branch index."""
    for field in dataclasses.fields(Tree):
        got, want = getattr(top.tree, field.name), getattr(ref.tree, field.name)
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype, field.name
            assert got.shape == want.shape, field.name
            assert got.tobytes() == want.tobytes(), field.name
        else:
            assert got == want, field.name
    if ref.coeffs is None:
        assert top.multipoles is None
    else:
        assert top.multipoles.coeffs.dtype == ref.coeffs.dtype
        assert top.multipoles.coeffs.tobytes() == ref.coeffs.tobytes()
    assert _index_contents(top.branch_index) \
        == _index_contents(ref.branch_index)


class TestArrayBuildEqualsOracle:
    """The anchored-key build is the ``set[Cell]`` build it replaced
    (``tests/oracles/merge.build_top_tree_reference``), bit for bit, and
    the merge charge read off it is the old ancestor count's."""

    @settings(deadline=None, max_examples=150)
    @given(dyadic_branch_sets(plants=("none",)), st.data())
    def test_random_dyadic_sets(self, case, data):
        branches, root = case
        dims = root.dims
        degree = data.draw(st.integers(0, 5) if dims == 3 else st.just(0))
        if degree:
            rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32)))
            for b in branches:
                shape = (n_terms(degree),)
                b.coeffs = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        kind = data.draw(st.sampled_from(["hashed", "sorted"]))
        top = build_top_tree(branches, root, degree, kind)
        assert_same_top_tree(
            top, build_top_tree_reference(branches, root, degree, kind))
        terms = max(degree, 1) ** 2
        assert _merge_flops(top, degree) == \
            _old_internal_count(branches, dims) * (1 << dims) \
            * MERGE_FLOPS_PER_TERM * terms

    @staticmethod
    def _forest_infos(cells, degree, seed):
        ps = plummer(600, seed=seed)
        ps = ParticleSet(0.5 + 0.08 * ps.positions.clip(-6, 6), ps.masses)
        cfg = SchemeConfig(mode="potential", degree=degree)
        subs = build_local_trees(ps, cells, ROOT, cfg, BITS)
        return [b for i, sub in enumerate(subs) for b in
                local_branch_infos([sub], rank=i % 4, root=ROOT,
                                   degree=degree)]

    @pytest.mark.parametrize("level", [0, 1, 2, 3])
    def test_grid_forests(self, level):
        ps = plummer(600, seed=level)
        keys = cluster_keys(0.5 + 0.08 * ps.positions.clip(-6, 6), ROOT,
                            level)
        cells = [Cell(level, int(k)) for k in np.unique(keys)]
        infos = self._forest_infos(cells, 0, level)
        assert_same_top_tree(build_top_tree(infos, ROOT, 0),
                             build_top_tree_reference(infos, ROOT, 0))

    @pytest.mark.parametrize("degree", [0, 2, 3])
    def test_dpda_cover_cells(self, degree):
        ps = plummer(600, seed=degree)
        pos = 0.5 + 0.08 * ps.positions.clip(-6, 6)
        keys = np.sort(morton_keys(pos, ROOT.lo, ROOT.side, BITS))
        cuts = [0, *keys[[150, 300, 450]].tolist(), 1 << (3 * BITS)]
        cells = [c for lo, hi in zip(cuts, cuts[1:])
                 for c in cover_cells(lo, hi, BITS, 3)]
        infos = self._forest_infos(cells, degree, degree)
        assert len({b.cell.depth for b in infos}) >= 3
        assert_same_top_tree(build_top_tree(infos, ROOT, degree),
                             build_top_tree_reference(infos, ROOT, degree))


class TestCheckDisjoint:
    """``build_top_tree`` rejects exactly the branch sets the quadratic
    scan rejects, naming a pair that really overlaps; a repeated cell is
    an overlap."""

    @settings(deadline=None, max_examples=150)
    @given(dyadic_branch_sets())
    def test_agrees_with_quadratic_scan(self, case):
        branches, root = case
        dims = root.dims
        try:
            check_disjoint_reference(branches, dims)
            overlap = False
        except ValueError:
            overlap = True
        if not overlap:
            build_top_tree(branches, root, 0)
            return
        with pytest.raises(ValueError, match="branch cells overlap") as err:
            build_top_tree(branches, root, 0)
        # the pair it names really overlaps
        named = [b for b in branches
                 if f"{b.cell} (rank {b.owner})" in str(err.value)]
        assert any(a is not b and contains_cell(a.cell, b.cell, dims)
                   for a in named for b in named)


class TestDistributedMerge:
    def _run(self, merge_kind, p=4):
        ps = uniform_cube(400, seed=13)

        def main(comm, merge_kind):
            # rank owns octants rank*2 and rank*2+1
            cells = [Cell(1, comm.rank * 2), Cell(1, comm.rank * 2 + 1)]
            from repro.core.tree_build import assign_to_cells
            slots = assign_to_cells(ps.positions, cells, ROOT, BITS)
            mine = ps.subset(slots >= 0)
            subs = build_local_trees(mine, cells, ROOT, SchemeConfig(),
                                     BITS)
            infos = local_branch_infos(subs, comm.rank, ROOT, degree=0)
            if merge_kind == "broadcast":
                top = merge_broadcast(comm, infos, ROOT, degree=0)
            else:
                top = merge_nonreplicated(comm, infos, ROOT, degree=0)
            return (float(top.tree.mass[0]), top.tree.com[0].copy(),
                    int((top.tree.remote_owner >= 0).sum()),
                    comm.clock.timings.seconds)

        return ps, Engine(p, ZERO_COST, recv_timeout=30.0).run(
            main, merge_kind)

    @pytest.mark.parametrize("kind", ["broadcast", "nonreplicated"])
    def test_all_ranks_agree_on_root(self, kind):
        ps, rep = self._run(kind)
        masses = [v[0] for v in rep.values]
        assert all(m == pytest.approx(ps.total_mass) for m in masses)
        for v in rep.values:
            np.testing.assert_allclose(v[1], ps.center_of_mass(),
                                       atol=1e-9)

    def test_both_merges_identical_results(self):
        _, rep_b = self._run("broadcast")
        _, rep_n = self._run("nonreplicated")
        for vb, vn in zip(rep_b.values, rep_n.values):
            assert vb[0] == pytest.approx(vn[0])
            np.testing.assert_allclose(vb[1], vn[1], atol=1e-12)
            assert vb[2] == vn[2]

    def test_phases_charged(self):
        _, rep = self._run("broadcast")
        phases = rep.values[0][3]
        assert "tree merging" in phases
        assert "all-to-all broadcast" in phases
