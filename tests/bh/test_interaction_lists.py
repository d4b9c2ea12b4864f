"""Tests for the interaction-list traversal engine.

The engine must be *observationally identical* to the classical
single-pass traversal (``tests/oracles``' ``traverse_reference``): values to
1e-12, interaction counters exactly, per-node interaction counts
exactly, per-target weights exactly, remote-target sets element-for-
element.  The engine's C walk restates, bit for bit, the oracle in
``tests/oracles/kernels.py::fused_walk_reference``, and a target's
values and counts do not depend on the batch it is walked in.
"""

import itertools
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.flops import FLOPS_PER_MAC, interaction_flops
from repro.bh import interaction_lists as il
from repro.bh.direct import direct_forces, direct_potentials
from repro.bh.distributions import (
    gaussian_blobs,
    plummer,
    random_centers,
)
from repro.bh.interaction_lists import (
    TraversalEngine,
    build_interaction_lists,
    evaluate_interaction_lists,
)
from repro.bh.mac import BarnesHutMAC
from repro.bh.morton import morton_keys
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import NO_CHILD, build_tree
from repro.bh.tree_repair import repair_tree
from tests.helpers import uniform_cube
from tests.oracles.grouping import group_p2p_rows
from tests.oracles.kernels import fused_walk_reference, \
    p2p_group_reference
from tests.oracles.traversal import traverse_reference
from tests.oracles.walk import walk_dfs_reference

N = 800


def _instances():
    ps_p = plummer(N, seed=7)
    rng = np.random.default_rng(3)
    ps_g = gaussian_blobs(N, random_centers(4, 3, rng), sigma=2.0, seed=3)
    return {"plummer": ps_p, "gaussian": ps_g}


INSTANCES = _instances()


def _mark_two_remote(tree):
    """Turn the root's first two children into remote leaves."""
    kids = tree.children[0][tree.children[0] != NO_CHILD]
    for i, child in enumerate(kids[:2]):
        tree.remote_owner[int(child)] = i + 1
        tree.remote_key[int(child)] = 100 + i


def _evaluator(tree, particles, degree):
    if degree == 0:
        return MonopoleExpansion(tree)
    return TreeMultipoles(tree, particles, degree)


class TestMatchesReference:
    @pytest.mark.parametrize("dist", sorted(INSTANCES))
    @pytest.mark.parametrize("degree", [0, 2])
    @pytest.mark.parametrize("mode", ["potential", "force"])
    def test_values_and_counters(self, dist, degree, mode):
        if mode == "force" and degree > 0:
            pytest.skip("multipole evaluators are potential-only")
        ps = INSTANCES[dist]
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.67)
        ev = _evaluator(tree, ps, degree)
        ref = traverse_reference(tree, ps, ps.positions, mac, ev,
                                 mode=mode)
        res = TraversalEngine(tree, ps, mac).compute(
            ps.positions, ev, mode=mode)
        assert np.max(np.abs(res.values - ref.values)) < 1e-12
        assert res.mac_tests == ref.mac_tests
        assert res.cluster_interactions == ref.cluster_interactions
        assert res.p2p_interactions == ref.p2p_interactions

    def test_node_interaction_counts_exact(self):
        ps = INSTANCES["plummer"]
        t1 = build_tree(ps, leaf_capacity=8)
        t2 = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.67)
        traverse_reference(t1, ps, ps.positions, mac,
                           MonopoleExpansion(t1), mode="force",
                           count_node_interactions=True)
        TraversalEngine(t2, ps, mac).compute(
            ps.positions, MonopoleExpansion(t2), mode="force",
            count_node_interactions=True)
        np.testing.assert_array_equal(t1.interactions, t2.interactions)

    def test_target_weights_exact(self):
        ps = INSTANCES["gaussian"]
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.67)
        ev = MonopoleExpansion(tree)
        w_ref = np.zeros(ps.n)
        w_eng = np.zeros(ps.n)
        traverse_reference(tree, ps, ps.positions, mac, ev,
                           mode="potential", target_weights=w_ref)
        TraversalEngine(tree, ps, mac).compute(
            ps.positions, ev, mode="potential", target_weights=w_eng)
        # Per-target flop shares are sums of integer-valued terms, so
        # equality is exact, not approximate.
        np.testing.assert_array_equal(w_ref, w_eng)

    def test_softened_force(self):
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.8)
        ev = MonopoleExpansion(tree, softening=0.05)
        ref = traverse_reference(tree, ps, ps.positions, mac, ev,
                                 mode="force", softening=0.05)
        res = TraversalEngine(tree, ps, mac, softening=0.05).compute(
            ps.positions, ev, mode="force")
        assert np.max(np.abs(res.values - ref.values)) < 1e-12

    @pytest.mark.parametrize("dims,alpha", [(2, 0.5), (3, 0.67), (3, 1.2)])
    def test_small_batch_against_large_tree(self, dims, alpha):
        """150 targets against a 2,000-particle tree with two remote
        leaves — many nodes per target, the shape of a served request
        bin.  Pair sets and per-target MAC counts come from the
        reference walking one target at a time."""
        ps = (plummer(2000, seed=13) if dims == 3
              else uniform_cube(2000, dims=dims, seed=13))
        tree = build_tree(ps, leaf_capacity=8)
        _mark_two_remote(tree)
        tg = ps.positions[:150]
        mac = BarnesHutMAC(alpha)
        ev = MonopoleExpansion(tree)

        lists = build_interaction_lists(tree, tg, mac)
        res = evaluate_interaction_lists(tree, lists, ps, ev)
        ref = traverse_reference(tree, ps, tg, mac, ev)
        assert np.max(np.abs(res.values - ref.values)) < 1e-12
        assert lists.mac_tests == ref.mac_tests
        assert lists.cluster_interactions == ref.cluster_interactions
        assert lists.p2p_interactions == ref.p2p_interactions
        assert list(lists.remote_targets) == sorted(ref.remote_targets)
        for node, idx in lists.remote_targets.items():
            np.testing.assert_array_equal(idx,
                                          np.sort(ref.remote_targets[node]))

        leaf = (tree.children == NO_CHILD).all(axis=1)
        cluster, p2p = set(), set()
        for t in range(tg.shape[0]):
            tree.interactions[:] = 0
            one = traverse_reference(tree, ps, tg[t:t + 1], mac, ev,
                                     count_node_interactions=True)
            assert lists.mac_per_target[t] == one.mac_tests
            hit = np.flatnonzero(tree.interactions)
            cluster.update((int(n), t) for n in hit[~leaf[hit]])
            p2p.update((int(n), t) for n in hit[leaf[hit]])
        assert set(zip(lists.cluster_node.tolist(),
                       lists.cluster_tgt.tolist())) == cluster
        assert set(zip(lists.p2p_leaf.tolist(),
                       lists.p2p_tgt.tolist())) == p2p


class TestRemoteTargets:
    def _remote_tree(self):
        ps = plummer(300, seed=21)
        tree = build_tree(ps, leaf_capacity=8)
        _mark_two_remote(tree)
        return ps, tree

    def test_matches_reference(self):
        ps, tree = self._remote_tree()
        mac = BarnesHutMAC(1e-9)          # force descent everywhere
        ev = MonopoleExpansion(tree)
        ref = traverse_reference(tree, ps, ps.positions, mac, ev)
        res = TraversalEngine(tree, ps, mac).compute(ps.positions, ev)
        assert sorted(res.remote_targets) == sorted(ref.remote_targets)
        for node, idx in res.remote_targets.items():
            np.testing.assert_array_equal(np.sort(ref.remote_targets[node]),
                                          idx)

    def test_deterministic_and_sorted(self):
        """Regression: remote target index lists are emitted sorted, so
        bin contents (and therefore wire traffic) are deterministic."""
        ps, tree = self._remote_tree()
        lists = build_interaction_lists(tree, ps.positions,
                                        BarnesHutMAC(1e-9))
        assert lists.remote_targets
        assert list(lists.remote_targets) == \
            sorted(lists.remote_targets)
        for idx in lists.remote_targets.values():
            assert np.all(np.diff(idx) > 0)


STREAM_CASES = {
    # name: (particles, degree, mode) — TreeMultipoles is 3-D only
    "force-monopole-2d": (uniform_cube(400, dims=2, seed=13), 0, "force"),
    "force-monopole-3d": (INSTANCES["plummer"], 0, "force"),
    "potential-deg3-3d": (INSTANCES["gaussian"], 3, "potential"),
}


def _assert_streamed_equals_whole_batch(case, remote, nt, chunk):
    """``compute`` called on consecutive chunks of ``chunk`` targets
    against ``build_interaction_lists`` + ``evaluate_interaction_lists``
    over the whole batch: everything equal, values to summation order;
    and, for point masses, bit for bit the engine's whole-batch walk."""
    ps, degree, mode = STREAM_CASES[case]
    mac = BarnesHutMAC(0.67)
    targets = ps.positions[np.random.default_rng(nt).permutation(ps.n)[:nt]]
    trees = [build_tree(ps, leaf_capacity=8) for _ in range(2)]
    if remote:                  # a top tree's shape: remote leaves
        for tree in trees:
            _mark_two_remote(tree)
    weights = [np.zeros(nt), np.zeros(nt)]
    lists = build_interaction_lists(trees[0], targets, mac)
    whole = evaluate_interaction_lists(
        trees[0], lists, ps, _evaluator(trees[0], ps, degree), mode=mode,
        count_node_interactions=True, target_weights=weights[0])
    engine = TraversalEngine(trees[1], ps, mac)
    ev = _evaluator(trees[1], ps, degree)
    parts = [engine.compute(targets[lo:lo + chunk], ev, mode=mode,
                            count_node_interactions=True,
                            target_weights=weights[1][lo:lo + chunk])
             for lo in range(0, max(nt, 1), chunk)]

    assert engine.walks_built == len(parts) == max(1, -(-nt // chunk))
    for name in ("mac_tests", "cluster_interactions", "p2p_interactions"):
        assert sum(getattr(p, name) for p in parts) \
            == getattr(whole, name), name
    # integer-valued floats: bitwise
    np.testing.assert_array_equal(weights[1], weights[0])
    np.testing.assert_array_equal(trees[1].interactions,
                                  trees[0].interactions)
    streamed = {}
    for lo, part in zip(range(0, nt, chunk), parts):
        for node, idx in part.remote_targets.items():
            streamed.setdefault(node, []).append(idx + lo)
    assert sorted(streamed) == list(whole.remote_targets)
    assert bool(streamed) == (remote and nt > 0)
    for node, idx in whole.remote_targets.items():
        got = np.concatenate(streamed[node])
        assert got.dtype == idx.dtype
        np.testing.assert_array_equal(got, idx)
    values = np.concatenate([p.values for p in parts])
    assert values.shape == whole.values.shape
    assert values.dtype == whole.values.dtype
    if nt:
        scale = np.abs(whole.values).max()
        assert np.abs(values - whole.values).max() <= 1e-12 * scale
    if degree == 0:
        one = TraversalEngine(trees[1], ps, mac).compute(targets, ev, mode)
        np.testing.assert_array_equal(_bits(values), _bits(one.values))


class TestStreamedEqualsWholeBatch:
    @pytest.mark.parametrize("nt", [0, 1, 63, 64, 65, 3 * 64 + 7])
    @pytest.mark.parametrize("remote", [False, True],
                             ids=["subtree", "top-tree"])
    @pytest.mark.parametrize("case", sorted(STREAM_CASES))
    def test_every_observable(self, case, remote, nt):
        _assert_streamed_equals_whole_batch(case, remote, nt, chunk=64)

    @settings(max_examples=25, deadline=None)
    @given(nt=st.integers(0, 400), chunk=st.integers(1, 450),
           remote=st.booleans())
    def test_any_batch_and_chunk_size(self, nt, chunk, remote):
        _assert_streamed_equals_whole_batch("force-monopole-3d", remote,
                                            nt, chunk)

    def test_walks_built_rises_by_one_per_call(self):
        ps, _, _ = STREAM_CASES["force-monopole-3d"]
        tree = build_tree(ps, leaf_capacity=8)
        engine = TraversalEngine(tree, ps, BarnesHutMAC(0.67))
        for calls, nt in enumerate((0, 65, 300), start=1):
            engine.compute(ps.positions[:nt], MonopoleExpansion(tree),
                           "force")
            assert engine.walks_built == calls


#: the list arrays a walk builds only when one is read
ON_DEMAND = ("p2p_leaf", "p2p_tgt", "p2p_sizes", "mac_per_target",
             "tested_node", "tested_tgt", "tested_ok")
LIST_ARRAYS = ("cluster_node", "cluster_tgt", *ON_DEMAND)


class TestBuildsOnlyWhatTheStepReads:
    """The list path (the benchmark's probes) keeps its row arrays
    unbuilt until read."""

    def _evaluated_lists(self, **kwargs):
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        lists = build_interaction_lists(tree, ps.positions,
                                        BarnesHutMAC(0.67))
        evaluate_interaction_lists(tree, lists, ps, MonopoleExpansion(tree),
                                   "force", count_node_interactions=True,
                                   **kwargs)
        assert lists.p2p_groups
        return lists

    def test_no_mac_records_or_walk_order_rows(self):
        assert not set(ON_DEMAND) & set(vars(self._evaluated_lists()))

    def test_target_weights_read_the_mac_counts_alone(self):
        weights = np.zeros(INSTANCES["plummer"].n)
        lists = self._evaluated_lists(target_weights=weights)
        assert set(ON_DEMAND) & set(vars(lists)) == {"mac_per_target"}
        assert weights.min() > 0


def _assert_walk_equals_oracle(tree, targets, alpha):
    """``build_interaction_lists`` against the earlier walk kept verbatim
    in ``tests/oracles/walk.py``: every list array equal element for
    element, dtype included (the on-demand ones read through their
    properties), and the P2P groups the walk emits equal to
    ``group_p2p_rows`` of the oracle's rows."""
    got = build_interaction_lists(tree, targets, BarnesHutMAC(alpha))
    (cluster_node, cluster_tgt, p2p_leaf, p2p_tgt, remote, mac_tests,
     mac_per_target, tested) = walk_dfs_reference(
        tree, got.target_cols.T, alpha, il._node_classes(tree), tree.ROOT)
    counts = (tree.end - tree.start).astype(np.int64)
    want = dict(cluster_node=cluster_node, cluster_tgt=cluster_tgt,
                p2p_leaf=p2p_leaf, p2p_tgt=p2p_tgt,
                p2p_sizes=counts[p2p_leaf], mac_per_target=mac_per_target,
                tested_node=tested[0], tested_tgt=tested[1],
                tested_ok=tested[2])
    for name in LIST_ARRAYS:
        a, b = getattr(got, name), want[name]
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    assert got.mac_tests == mac_tests
    assert type(got.mac_tests) is type(mac_tests)
    assert got.p2p_interactions == int(counts[p2p_leaf].sum())
    assert list(got.remote_targets) == sorted(remote)
    for node, idx in got.remote_targets.items():
        assert np.array_equal(idx, np.sort(remote[node]))
    rows = group_p2p_rows(p2p_tgt, tree.start[p2p_leaf], counts[p2p_leaf])
    assert len(got.p2p_groups) == len(rows)
    for (tgt, starts, runs, ns), (tgt_r, starts_r, ns_r) in zip(
            got.p2p_groups, rows):
        assert ns == ns_r
        assert tgt.dtype == tgt_r.dtype and np.array_equal(tgt, tgt_r)
        # per visit a slice start and a row count: the oracle's per-row
        # starts once expanded
        assert starts.dtype == starts_r.dtype \
            and np.array_equal(np.repeat(starts, runs), starts_r)
    return got


@pytest.mark.parametrize("seed", range(8))
def test_grouped_visits_equal_grouped_rows(seed):
    """Data shipping's leaf visits, empty ones and repeated leaves
    included, group as the row sort in ``tests/oracles/grouping.py``
    groups their rows."""
    rng = np.random.default_rng(seed)
    nv = int(rng.integers(1, 40))
    ns = rng.integers(1, 9, size=nv)
    idx = [rng.integers(0, 500, size=int(m))
           for m in rng.integers(0, 30, size=nv)]
    rows = np.array([i.size for i in idx])
    starts = np.cumsum(ns) - ns
    got = il.group_leaf_visits(idx, rows, starts, ns)
    want = group_p2p_rows(np.concatenate(idx), np.repeat(starts, rows),
                          np.repeat(ns, rows))
    assert [g[-1] for g in got] == [w[-1] for w in want]
    for (tgt, st, runs, _), (tgt_w, st_w, _) in zip(got, want):
        assert tgt.dtype == tgt_w.dtype and np.array_equal(tgt, tgt_w)
        assert st.dtype == st_w.dtype \
            and np.array_equal(np.repeat(st, runs), st_w)


class TestWalkEqualsOracle:
    def test_plummer_subtree_with_outside_targets(self):
        """A branch subtree serving requesters that live elsewhere: its
        own tree over one root child's particles, rooted at that cell."""
        ps = INSTANCES["plummer"]
        full = build_tree(ps, leaf_capacity=8)
        kid = int(full.children[0][full.children[0] != NO_CHILD][0])
        inside = full.particle_indices(kid)
        tree = build_tree(ParticleSet(ps.positions[inside], ps.masses[inside]),
                          box=Box(full.center[kid], float(full.half[kid])),
                          leaf_capacity=8)
        outside = np.setdiff1d(np.arange(ps.n), inside)
        lists = _assert_walk_equals_oracle(tree, ps.positions[outside], 0.67)
        assert lists.cluster_interactions and lists.p2p_interactions

    def test_top_tree_with_remote_leaves(self):
        ps = INSTANCES["gaussian"]
        tree = build_tree(ps, leaf_capacity=8)
        _mark_two_remote(tree)
        lists = _assert_walk_equals_oracle(tree, ps.positions, 0.67)
        assert len(lists.remote_targets) == 2

    @pytest.mark.parametrize("capacity", [1, 8])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_dims_and_leaf_capacity(self, dims, capacity):
        ps = uniform_cube(500, dims=dims, seed=11)
        tree = build_tree(ps, leaf_capacity=capacity)
        _assert_walk_equals_oracle(tree, ps.positions, 0.8)

    def test_every_target_inside_the_root_cell(self):
        """The inside-the-cell veto decides everything at the root and
        wherever a target sits in a cell it is far from the mass of."""
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        rng = np.random.default_rng(4)
        targets = tree.center[0] + tree.half[0] * rng.uniform(
            -0.999, 0.999, (300, 3))
        lists = _assert_walk_equals_oracle(tree, targets, 5.0)
        assert not lists.tested_ok[lists.tested_node == 0].any()
        assert lists.tested_ok.any()

    def test_empty_batch(self):
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        lists = _assert_walk_equals_oracle(tree, np.zeros((0, 3)), 0.67)
        assert lists.nt == 0 and lists.mac_tests == 0

    def test_walks_record_decisions(self):
        """One ``tested_*`` row per MAC test; the accepted ones are
        exactly the cluster pairs."""
        ps = uniform_cube(400, seed=5)
        tree = build_tree(ps, leaf_capacity=8)
        lists = build_interaction_lists(tree, ps.positions[:64],
                                        BarnesHutMAC(alpha=1.0))
        assert lists.tested_node.size == lists.mac_tests
        assert lists.tested_ok.size == lists.mac_tests
        acc = {(int(n), int(t)) for n, t
               in zip(lists.tested_node[lists.tested_ok],
                      lists.tested_tgt[lists.tested_ok])}
        cl = {(int(n), int(t)) for n, t
              in zip(lists.cluster_node, lists.cluster_tgt)}
        assert acc and acc == cl

    @settings(max_examples=25, deadline=None)
    @given(n=st.integers(1, 300), nt=st.integers(0, 120),
           alpha=st.floats(0.05, 3.0), capacity=st.integers(1, 12),
           seed=st.integers(0, 2 ** 16))
    def test_any_instance(self, n, nt, alpha, capacity, seed):
        rng = np.random.default_rng(seed)
        ps = ParticleSet(rng.normal(size=(n, 3)), rng.uniform(0.5, 1.5, n))
        tree = build_tree(ps, leaf_capacity=capacity)
        _assert_walk_equals_oracle(tree, 1.5 * rng.normal(size=(nt, 3)),
                                   alpha)


def _targets_in_and_around_cells(tree, rng, cells=24, per_cell=12):
    """Points inside and just outside random cells, on their faces, and
    at their COMs."""
    nodes = rng.choice(tree.nnodes, size=min(cells, tree.nnodes),
                       replace=False)
    d = tree.center.shape[1]
    center, half = tree.center[nodes], tree.half[nodes][:, None]
    around = center[:, None] + half[:, None] * rng.uniform(
        -1.5, 1.5, (nodes.size, per_cell, d))
    face = center + half * np.eye(d)[rng.integers(d, size=nodes.size)] \
        * rng.choice([-1.0, 1.0], size=(nodes.size, 1))
    return np.concatenate([around.reshape(-1, d), face, tree.com[nodes]])


class TestReachGatedVeto:
    """The inside-the-cell veto runs only on targets that passed the
    distance test within ``reach`` of the node's COM; the oracle vetoes
    at every node.  Moved sources leave COMs off-centre — outside their
    cells, even — as a block step's refreshed monopoles do."""

    @pytest.mark.parametrize("moved", [False, True], ids=["built", "moved"])
    @pytest.mark.parametrize("alpha", [0.3, 0.67, 1.0, 2.5])
    @pytest.mark.parametrize("dims", [2, 3])
    def test_decisions_equal_the_oracle(self, dims, alpha, moved):
        rng = np.random.default_rng([dims, int(100 * alpha), moved])
        vetoed = 0
        for capacity in range(1, 9):
            n = int(rng.integers(40, 300))
            ps = ParticleSet(rng.normal(size=(n, dims)),
                             rng.uniform(0.5, 1.5, n))
            tree = build_tree(ps, leaf_capacity=capacity)
            if moved:
                tree.compute_monopoles(ParticleSet(
                    ps.positions + rng.normal(scale=0.3, size=(n, dims)),
                    ps.masses))
            targets = _targets_in_and_around_cells(tree, rng)
            lists = _assert_walk_equals_oracle(tree, targets, alpha)
            node, tgt = lists.tested_node, lists.tested_tgt
            dist = np.linalg.norm(targets[tgt] - tree.com[node], axis=1)
            vetoed += int(np.sum((2.0 * tree.half[node] < alpha * dist)
                                 & ~lists.tested_ok))
        if alpha > 2 or moved and alpha > 0.5:
            assert vetoed         # the veto decided some pairs


class _NoClusters:
    """An evaluator whose cluster terms vanish (massless point masses
    add signed zeros onto zeros): what ``evaluate_interaction_lists``
    returns is its P2P pass alone."""

    def __init__(self, tree):
        self.com, self.mass = tree.com, np.zeros(tree.nnodes)

    def point_masses(self, mode):
        return self.com, self.mass, 0.0


def _listed_pairs_reference(tree, ps, lists, mode, softening):
    """Direct sums over exactly the listed (leaf slice, target) pairs."""
    direct = direct_forces if mode == "force" else direct_potentials
    out = np.zeros((lists.nt, lists.d) if mode == "force" else lists.nt)
    for leaf in np.unique(lists.p2p_leaf):
        tgt = lists.p2p_tgt[lists.p2p_leaf == leaf]
        src = ps.subset(tree.order[tree.start[leaf]:tree.end[leaf]])
        np.add.at(out, tgt, direct(src, lists.target_cols[:, tgt].T,
                                   softening=softening))
    return out


def _p2p_case(dims, uniform, n=400, capacity=8):
    rng = np.random.default_rng(dims + 2 * uniform)
    ps = ParticleSet(rng.normal(size=(n, dims)),
                     np.full(n, 1.0 / n) if uniform
                     else rng.uniform(0.5, 1.5, n))
    tree = build_tree(ps, leaf_capacity=capacity)
    # targets coincident with sources: every self pair is listed
    lists = build_interaction_lists(tree, ps.positions, BarnesHutMAC(0.67))
    assert set(lists.p2p_sizes) == set(range(1, capacity + 1))
    return ps, tree, lists


class TestLaneMajorP2P:
    @pytest.mark.parametrize("softening", [0.0, 0.05])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "masses"])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_matches_direct_sums_over_listed_pairs(self, mode, dims,
                                                   uniform, softening):
        ps, tree, lists = _p2p_case(dims, uniform)
        with warnings.catch_warnings():
            warnings.simplefilter("error")      # zero distance is guarded
            got = evaluate_interaction_lists(
                tree, lists, ps, _NoClusters(tree), mode=mode,
                softening=softening).values
        want = _listed_pairs_reference(tree, ps, lists, mode, softening)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_coincident_pair_contributes_exactly_zero(self, mode):
        """Two particles, one leaf: the target on top of source 0 gets
        source 1's term and nothing else."""
        ps = ParticleSet(np.array([[0.0, 0.0, 0.0], [0.5, 0.0, 0.0]]),
                         np.array([2.0, 3.0]))
        tree = build_tree(ps, leaf_capacity=8)
        lists = build_interaction_lists(tree, ps.positions[:1],
                                        BarnesHutMAC(0.67))
        assert lists.p2p_sizes.tolist() == [2]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = evaluate_interaction_lists(
                tree, lists, ps, _NoClusters(tree), mode=mode).values
        want = -il.G * 3.0 * (np.array([[-0.5, 0.0, 0.0]]) / 0.125
                                   if mode == "force" else np.array([2.0]))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "masses"])
    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_many_chunks_equal_one(self, mode, uniform):
        """The P2P pass is one kernel call per leaf-size group, however
        many rows and visits the group holds, so its sums never regroup:
        counted calls give the uncounted bits."""
        ps, tree, lists = _p2p_case(3, uniform, n=250)
        one = evaluate_interaction_lists(tree, lists, ps, _NoClusters(tree),
                                         mode=mode)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            group = il._p2p_group
            patch.setattr(il, "_p2p_group",
                          lambda *a: calls.append(a[4]) or group(*a))
            many = evaluate_interaction_lists(
                tree, lists, ps, _NoClusters(tree), mode=mode)
        assert calls == [ns for *_, ns in lists.p2p_groups]
        np.testing.assert_array_equal(_bits(many.values), _bits(one.values))

    def test_groups_hold_no_positions(self):
        ps, tree, lists = _p2p_case(3, False)
        groups = lists.p2p_groups
        assert [ns for *_, ns in groups] == list(range(1, 9))
        # per row one target index; per visit a slice start and a count
        assert sum(t.nbytes for t, *_ in groups) == 8 * lists.p2p_sizes.size
        assert sum(s.nbytes + r.nbytes for _, s, r, _ in groups) \
            == 16 * lists.leaf_rows.size

    def test_sources_are_read_at_evaluation_time(self):
        """Block stepping moves sources under a reused tree: nothing
        about a source may be cached on the lists."""
        ps, tree, lists = _p2p_case(3, False)
        evaluate_interaction_lists(tree, lists, ps, _NoClusters(tree),
                                   "force")
        moved = ParticleSet(ps.positions + 1e-3, ps.masses)
        got = evaluate_interaction_lists(
            tree, lists, moved, _NoClusters(tree), mode="force").values
        want = _listed_pairs_reference(tree, moved, lists, "force", 0.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_subset_and_repaired_lists(self):
        """Lists walked over a repaired tree (grafted subtrees, shifted
        slices, renumbered nodes) sum exactly the listed pairs."""
        rng = np.random.default_rng(0)
        ps = ParticleSet(rng.uniform(-1.0, 1.0, (1200, 3)),
                         rng.uniform(0.5, 1.5, 1200))
        box, bits = Box(np.zeros(3), 2.0), 10
        k0 = morton_keys(ps.positions, box.lo, box.side, bits)
        tree = build_tree(ps, box=box, leaf_capacity=8, max_depth=bits,
                          keys=k0)
        movers = np.flatnonzero((ps.positions < -0.6).all(axis=1))[:30]
        pos = ps.positions.copy()
        pos[movers] = rng.uniform(-1.0, -0.6, (movers.size, 3))
        ps2 = ParticleSet(pos, ps.masses)
        repair = repair_tree(tree, ps2, k0,
                             morton_keys(pos, box.lo, box.side, bits), movers)
        assert not repair.rebuilt and repair.nodes_reused
        targets = pos[(pos > 0.5).all(axis=1)]
        lists = build_interaction_lists(repair.tree, targets,
                                        BarnesHutMAC(1.2))
        got = evaluate_interaction_lists(repair.tree, lists, ps2,
                                         _NoClusters(repair.tree),
                                         mode="force").values
        want = _listed_pairs_reference(repair.tree, ps2, lists, "force", 0.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _random_group(rng, nt, n_src, ns, nvisits, max_rows):
    """A group of ``nvisits`` visits of 1 .. ``max_rows`` rows each over
    ``ns`` sources from random starts; targets drawn with repeats, so a
    target recurs across the visits of the group."""
    rows = rng.integers(1, max_rows + 1, nvisits)
    starts = rng.integers(0, n_src - ns + 1, nvisits)
    tgt = rng.integers(0, nt, rows.sum())
    return tgt, starts, rows


class TestCKernelEqualsOracle:
    """The C P2P kernel (``_kernels.c`` behind ``_p2p_group``) adds,
    bit for bit, what ``tests/oracles/kernels.py::p2p_group_reference``
    adds: compared as ``uint64`` views."""

    @pytest.mark.parametrize("softening", [0.0, 0.05])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "masses"])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_every_configuration(self, mode, dims, uniform, softening):
        """Whole walks: every leaf size 1 .. 8 a group, each target
        repeated across the visits of one group.  The targets are the
        sources, so every unsoftened case has coincident pairs, whose
        guarded zero distance must contribute what the oracle's does."""
        ps, tree, lists = _p2p_case(dims, uniform, n=250)
        got = evaluate_interaction_lists(
            tree, lists, ps, _NoClusters(tree), mode=mode,
            softening=softening).values
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(il, "_p2p_group", p2p_group_reference)
            want = evaluate_interaction_lists(
                tree, lists, ps, _NoClusters(tree), mode=mode,
                softening=softening).values
        np.testing.assert_array_equal(_bits(got), _bits(want))
        assert np.isfinite(got).all()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_groups(self, seed):
        """Groups of 1 .. 300 sources and of one row up to visits past
        the kernel's 256-row block, added onto values already there, in
        every configuration; a quarter of the targets sit on a source."""
        rng = np.random.default_rng(seed)
        nt, n_src = 64, 400
        for dims, force, uniform, soft2 in itertools.product(
                (2, 3), (True, False), (True, False), (0.0, 0.05 ** 2)):
            sp = rng.normal(size=(dims, n_src)) \
                * 10.0 ** rng.integers(-3, 3, n_src)
            tp = rng.normal(size=(dims, nt))
            on = rng.choice(nt, nt // 4, replace=False)
            tp[:, on] = sp[:, rng.choice(n_src, on.size, replace=False)]
            sm = None if uniform else rng.uniform(0.5, 1.5, n_src)
            for ns in (1, 2, 7, 8, 9, 16, 129, 300):
                for nvisits, max_rows in ((1, 1), (3, 5), (2, 300)):
                    group = _random_group(rng, nt, n_src, ns, nvisits,
                                          max_rows)
                    got = rng.normal(size=(dims, nt) if force else nt)
                    want = got.copy()
                    args = (*group, ns, tp, sp, sm, force, soft2, -1.5)
                    il._p2p_group(got, *args)
                    p2p_group_reference(want, *args)
                    np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("ns", [1, 7, 9])
    def test_one_row_folds_like_numpy(self, ns):
        """A one-row group folds its ``ns`` sources one at a time, like
        the numpy oracle's loop over ``j`` and like a group of two rows,
        not by numpy's pairwise sum."""
        rng = np.random.default_rng(ns)
        sp = rng.normal(size=(3, ns)) * 10.0 ** rng.integers(-3, 3, ns)
        sm = rng.uniform(0.5, 1.5, ns)
        tp = rng.normal(size=(3, 2))
        for force in (True, False):
            for m in (1, 2):
                args = (np.arange(m), np.array([0]), np.array([m]), ns, tp,
                        sp, sm, force, 0.0, -1.0)
                got = np.zeros((3, 2) if force else 2)
                want = got.copy()
                il._p2p_group(got, *args)
                p2p_group_reference(want, *args)
                np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("force", [True, False])
    def test_strided_inputs(self, force):
        """A ``values[:, lo:hi]`` slice as ``out``, a ``cols[:, lo:hi]``
        target slice and the transposed ``(d, n)`` views data shipping
        passes (inner stride ``8 d``), sources and masses strided too:
        the same bits as contiguous copies, and as the oracle on the
        same views; values outside the slice are left alone."""
        rng = np.random.default_rng(5)
        n, d, lo = 64, 3, 16
        cols = rng.normal(size=(d, 3 * n))
        rows = rng.normal(size=(2 * n, d))              # (n, d) positions
        masses = rng.uniform(0.5, 1.5, 2 * n)
        tgt = rng.integers(0, n, 40)
        starts, visits, ns = np.array([0, 9, 30]), np.array([15, 1, 24]), 5
        views = [(cols[:, lo:lo + n], rows.T, masses[::2]),
                 (rows.T[:, :n], cols[:, ::2], masses[n:])]
        for tp, sp, sm in views:
            assert tp.strides[1] != 8 or sp.strides[1] != 8 \
                or tp.strides[0] != 8 * tp.shape[1]
            args = (tgt, starts, visits, ns, tp, sp, sm, force, 0.01, -2.0)
            values = rng.normal(size=(d, 3 * n) if force else 3 * n)
            sliced = values.copy()
            il._p2p_group(sliced[..., lo:lo + n], *args)
            dense = values[..., lo:lo + n].copy()
            il._p2p_group(dense, tgt, starts, visits, ns,
                          *(np.ascontiguousarray(a) for a in (tp, sp, sm)),
                          force, 0.01, -2.0)
            want = values.copy()
            p2p_group_reference(want[..., lo:lo + n], *args)
            np.testing.assert_array_equal(_bits(sliced), _bits(want))
            np.testing.assert_array_equal(_bits(dense),
                                          _bits(want[..., lo:lo + n]))

    def test_rows_past_the_arrays_are_refused(self):
        """The kernel indexes unchecked, so the wrapper refuses a target
        index past its coordinates or its values, a source index past
        its array, and visits that miscount the rows."""
        tp, sp, sm = np.zeros((3, 4)), np.zeros((3, 6)), np.ones(6)
        ok = (np.arange(4), np.array([0, 3]), np.array([2, 2]), 3)
        il._p2p_group(np.zeros((3, 4)), *ok, tp, sp, sm, True, 0.0, 1.0)
        bad = [(np.array([0, 1, 2, 4]), *ok[1:]),               # target
               (ok[0], np.array([0, 4]), ok[2], 3),              # source
               (ok[0], ok[1], np.array([2, 3]), 3),              # rows
               (ok[0], np.array([0]), ok[2], 3)]                 # visits
        for args in bad:
            with pytest.raises(IndexError):
                il._p2p_group(np.zeros((3, 5)), *args, tp, sp, sm, True,
                              0.0, 1.0)
        with pytest.raises(IndexError):                          # masses
            il._p2p_group(np.zeros((3, 4)), *ok, tp, sp, sm[:5], True,
                          0.0, 1.0)
        with pytest.raises(IndexError):                          # values
            il._p2p_group(np.zeros((3, 3)), *ok, tp, sp, sm, True, 0.0,
                          1.0)

    def test_out_is_written_in_place_or_refused(self):
        """The kernel adds into ``out`` itself, so an ``out`` it cannot
        write in place — read-only, not float64, a stride that is not
        a whole element, or the wrong shape for the mode — is refused,
        never copied, and left as it was."""
        tp, sp = np.ones((3, 4)), np.zeros((3, 6))
        args = (np.arange(4), np.array([0]), np.array([4]), 3, tp, sp,
                None)
        frozen = np.zeros((3, 4))
        frozen.flags.writeable = False
        odd = np.lib.stride_tricks.as_strided(np.zeros(64), shape=(3, 4),
                                              strides=(48, 12))
        cases = [(frozen, True), (np.zeros((3, 4), np.float32), True),
                 (odd, True), (np.zeros((2, 4)), True), (np.zeros(4), True),
                 (np.zeros((3, 4)), False)]
        for out, force in cases:
            before = out.copy()
            with pytest.raises(ValueError, match="P2P kernel"):
                il._p2p_group(out, *args, force, 0.0, 1.0)
            np.testing.assert_array_equal(out, before)
        out = np.zeros((3, 4))
        il._p2p_group(out, *args, True, 0.0, 1.0)
        assert (out != 0).all()


def _c_walk(tree, sources, targets, alpha, evaluator, mode, softening=0.0,
            ranges=None, cpus=()):
    """``interaction_lists._walk`` over ``(nt, d)`` targets, one call
    per ``(lo, hi)`` of ``ranges`` (default: one whole range) into the
    same arrays, each split over ``cpus``: values (``(d, nt)`` force
    columns), ``(3, nt)`` counts, per-node counts, the remote map of
    each call."""
    nt, d = targets.shape
    cols = np.ascontiguousarray(targets.T)
    values = np.zeros((d, nt) if mode == "force" else nt)
    counts = np.zeros((3, nt), dtype=np.int64)
    node_count = np.zeros(tree.nnodes, dtype=np.int64)
    results = [il._walk(il._WalkTree(tree), cols, alpha, values, counts,
                        il._source_layout(tree, sources), evaluator, mode,
                        softening, node_count, lo, hi, cpus)
               for lo, hi in ranges or [(0, nt)]]
    return values, counts, node_count, results


def _weights(counts, evaluator):
    """Target weights from ``(3, nt)`` counts: the flop model's terms."""
    per_cluster = interaction_flops(getattr(evaluator, "degree", 0))
    return (FLOPS_PER_MAC * counts[0] + per_cluster * counts[1]
            + interaction_flops(0) * counts[2])


def _assert_c_walk_equals_oracle(tree, sources, targets, alpha, evaluator,
                                 mode, softening=0.0):
    """The C walk against ``fused_walk_reference``: values as ``uint64``
    views, per-target and per-node counts, counters, the remote map and
    the engine's target weights all equal."""
    values, counts, node_count, (res,) = _c_walk(
        tree, sources, targets, alpha, evaluator, mode, softening)
    layout = il._source_layout(tree, sources)
    want, want_counts, want_nodes, remote = fused_walk_reference(
        tree, targets, alpha, evaluator, layout, mode, softening)
    np.testing.assert_array_equal(_bits(values), _bits(want))
    np.testing.assert_array_equal(counts, want_counts)
    np.testing.assert_array_equal(node_count, want_nodes)
    assert (res.mac_tests, res.cluster_interactions, res.p2p_interactions) \
        == tuple(int(c) for c in want_counts.sum(axis=1))
    assert list(res.remote_targets) == list(remote)
    for node, idx in remote.items():
        got = res.remote_targets[node]
        assert got.dtype == idx.dtype and np.array_equal(got, idx)
    weights = np.zeros(targets.shape[0])
    TraversalEngine(tree, sources, BarnesHutMAC(alpha), softening).compute(
        targets, evaluator, mode, target_weights=weights)
    np.testing.assert_array_equal(weights, _weights(want_counts, evaluator))
    return counts


def _walk_case(dims, uniform, seed, n=300, capacity=8):
    rng = np.random.default_rng([dims, uniform, seed])
    ps = ParticleSet(rng.normal(size=(n, dims)),
                     np.full(n, 1.0 / n) if uniform
                     else rng.uniform(0.5, 1.5, n))
    tree = build_tree(ps, leaf_capacity=capacity)
    # the sources themselves, and points in, around, on the faces of
    # and at the COMs of random cells
    targets = np.concatenate([ps.positions,
                              _targets_in_and_around_cells(tree, rng)])
    return ps, tree, targets


class TestCWalkEqualsOracle:
    """The C walk (``_kernels.c``'s ``walk`` behind ``_walk``) adds and
    counts, bit for bit, what ``fused_walk_reference`` does."""

    @pytest.mark.parametrize("softening", [0.0, 0.05])
    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "masses"])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_every_configuration(self, mode, dims, uniform, softening):
        ps, tree, targets = _walk_case(dims, uniform, 0)
        for alpha in (0.67, 2.5):           # 2.5: the veto decides pairs
            counts = _assert_c_walk_equals_oracle(
                tree, ps, targets, alpha,
                MonopoleExpansion(tree, softening=softening), mode,
                softening)
            assert counts[1].any() and counts[2].any()

    def test_targets_on_the_mac_boundary(self):
        """Targets at 2h / alpha from the root's COM, where the pairing
        of the squared distance decides: for hundreds of them the
        left-to-right sum would flip the root's decision."""
        ps, tree, _ = _walk_case(3, False, 8)
        alpha, edge = 0.5, 2.0 * tree.half[0]
        u = np.random.default_rng(8).normal(size=(4000, 3))
        targets = tree.com[0] + u / np.linalg.norm(u, axis=1)[:, None] \
            * (edge / alpha)
        x, y, z = (targets - tree.com[0]).T
        paired = edge < alpha * np.sqrt((x * x + z * z) + y * y)
        assert np.sum(paired != (edge < alpha * np.sqrt((x * x + y * y)
                                                        + z * z))) > 100
        counts = _assert_c_walk_equals_oracle(
            tree, ps, targets, alpha, MonopoleExpansion(tree), "force")
        np.testing.assert_array_equal(counts[0] == 1, paired)

    def test_tree_multipoles_force(self):
        ps, tree, targets = _walk_case(3, False, 1)
        _assert_c_walk_equals_oracle(tree, ps, targets, 0.67,
                                     TreeMultipoles(tree, ps, 3), "force")

    def test_tree_multipoles_potential(self):
        """A degree 1 .. 6 potential: each accepting node adds its
        series terms at its visit, as the oracle's ``m2p_reference``."""
        ps, tree, targets = _walk_case(3, False, 2)
        for degree in range(1, 7):
            counts = _assert_c_walk_equals_oracle(
                tree, ps, targets, 0.67, TreeMultipoles(tree, ps, degree),
                "potential")
            assert counts[1].any()

    def test_top_tree_with_remote_leaves_and_no_sources(self):
        """Every root child a remote leaf, no local leaf: no sources are
        needed, and the remote map is the walk's."""
        ps, tree, targets = _walk_case(3, False, 3)
        kids = tree.children[0][tree.children[0] != NO_CHILD]
        tree.remote_owner[kids] = 1
        _assert_c_walk_equals_oracle(tree, None, targets, 0.67,
                                     MonopoleExpansion(tree), "force")
        _mark_two_remote(tree)
        tree.remote_owner[kids[2:]] = -1
        with pytest.raises(ValueError, match="no source particles"):
            _c_walk(tree, None, targets, 0.67, MonopoleExpansion(tree),
                    "force")
        _assert_c_walk_equals_oracle(tree, ps, targets, 0.67,
                                     MonopoleExpansion(tree), "potential")

    def test_empty_nodes(self):
        ps, tree, targets = _walk_case(2, True, 4)
        leaves = np.flatnonzero((tree.children == NO_CHILD).all(axis=1))
        tree.end[leaves[::3]] = tree.start[leaves[::3]]
        _assert_c_walk_equals_oracle(tree, ps, targets, 0.67,
                                     MonopoleExpansion(tree), "force")

    def test_one_leaf_tree(self):
        ps = ParticleSet(np.random.default_rng(5).normal(size=(5, 3)),
                         np.arange(1.0, 6.0))
        tree = build_tree(ps, leaf_capacity=8)
        assert tree.nnodes == 1
        counts = _assert_c_walk_equals_oracle(
            tree, ps, ps.positions, 0.67, MonopoleExpansion(tree), "force")
        assert (counts[2] == 5).all() and not counts[:2].any()

    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_no_targets(self, mode):
        ps, tree, _ = _walk_case(3, False, 6)
        _assert_c_walk_equals_oracle(tree, ps, np.zeros((0, 3)), 0.67,
                                     MonopoleExpansion(tree), mode)


class TestBatchIndependence:
    """With point masses, a target's values and counts are bitwise the
    same alone, in a random subset, in the whole batch, or walked in
    any ranges ``[lo, hi)`` of one batch; a range writes only its own
    targets' columns."""

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), dims=st.sampled_from([2, 3]),
           mode=st.sampled_from(["force", "potential"]),
           softening=st.sampled_from([0.0, 0.05]),
           cuts=st.lists(st.integers(0, 400), max_size=6))
    def test_alone_subset_whole_and_ranges(self, seed, dims, mode,
                                           softening, cuts):
        ps, tree, targets = _walk_case(dims, seed % 2 == 0, seed, n=200)
        ev = MonopoleExpansion(tree, softening=softening)
        nt = targets.shape[0]

        def walk(tg, ranges=None):
            values, counts, _, _ = _c_walk(tree, ps, tg, 0.8, ev, mode,
                                           softening, ranges)
            return _bits(values), counts

        whole, whole_counts = walk(targets)
        bounds = sorted({0, nt, *(c for c in cuts if c < nt)})
        ranged, ranged_counts = walk(targets, list(zip(bounds[:-1],
                                                       bounds[1:])))
        np.testing.assert_array_equal(ranged, whole)
        np.testing.assert_array_equal(ranged_counts, whole_counts)
        rng = np.random.default_rng(seed)
        subset = np.sort(rng.choice(nt, size=nt // 3, replace=False))
        got, got_counts = walk(targets[subset])
        np.testing.assert_array_equal(got, whole[..., subset])
        np.testing.assert_array_equal(got_counts, whole_counts[:, subset])
        for t in rng.choice(nt, size=5, replace=False):
            got, got_counts = walk(targets[t:t + 1])
            np.testing.assert_array_equal(got, whole[..., t:t + 1])
            np.testing.assert_array_equal(got_counts,
                                          whole_counts[:, t:t + 1])

    def test_a_range_writes_only_its_columns(self):
        ps, tree, targets = _walk_case(3, False, 7)
        nt = targets.shape[0]
        lo, hi = nt // 3, 2 * nt // 3
        values, counts, node_count, (res,) = _c_walk(
            tree, ps, targets, 0.67, MonopoleExpansion(tree), "force",
            ranges=[(lo, hi)])
        assert not values[:, :lo].any() and not values[:, hi:].any()
        assert not counts[:, :lo].any() and not counts[:, hi:].any()
        assert counts[:, lo:hi].all() and node_count.sum() > 0
        assert res.mac_tests == counts[0].sum()


    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 16), dims=st.sampled_from([2, 3]),
           mode=st.sampled_from(["force", "potential"]),
           chunk=st.integers(1, 120), threads=st.integers(2, 6),
           lo=st.integers(0, 150), order=st.randoms(use_true_random=False))
    def test_interleaved_chunks_equal_one_range(self, seed, dims, mode,
                                                chunk, threads, lo, order):
        """``threads`` walks over interleaved chunks of ``[lo, nt)``,
        chunk k + i * threads on walk k, run one after another in any
        order, add up to the one-range walk: values bitwise, per-target
        and per-node counts, totals."""
        ps, tree, targets = _walk_case(dims, seed % 2 == 0, seed, n=200)
        ev = MonopoleExpansion(tree)
        lo = min(lo, targets.shape[0])

        def in_turn(cpus, tasks):
            assert len(cpus) == threads and len(tasks) == min(
                threads, -(-(targets.shape[0] - lo) // chunk))
            ks = list(range(len(tasks)))
            order.shuffle(ks)
            out = [None] * len(tasks)
            for k in ks:
                out[k] = tasks[k]()
            return out

        one = _c_walk(tree, ps, targets, 0.8, ev, mode, ranges=[(lo, targets.shape[0])])
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(il, "WALK_CHUNK", chunk)
            mp.setattr(il.pool, "run", in_turn)
            split = _c_walk(tree, ps, targets, 0.8, ev, mode,
                            ranges=[(lo, targets.shape[0])], cpus=(0,) * threads)
        np.testing.assert_array_equal(_bits(split[0]), _bits(one[0]))
        for got, want in zip(split[1:3], one[1:3]):
            np.testing.assert_array_equal(got, want)
        (res,), (want,) = split[3], one[3]
        assert (res.mac_tests, res.cluster_interactions,
                res.p2p_interactions) == (want.mac_tests,
                                          want.cluster_interactions,
                                          want.p2p_interactions)

    def test_threads_over_remote_leaves_walk_one_range(self, monkeypatch):
        """A tree with remote leaves (a top tree) keeps one range: its
        remote map has one visit per leaf."""
        ps, tree, targets = _walk_case(3, True, 9)
        kids = tree.children[0][tree.children[0] != NO_CHILD]
        tree.remote_owner[kids[:2]] = 1
        monkeypatch.setattr(il, "WALK_CHUNK", 16)
        monkeypatch.setattr(il.pool, "run", _refuse_threads)
        ev = MonopoleExpansion(tree)
        one = _c_walk(tree, ps, targets, 0.67, ev, "force")
        split = _c_walk(tree, ps, targets, 0.67, ev, "force", cpus=(0, 1))
        np.testing.assert_array_equal(_bits(split[0]), _bits(one[0]))
        (res,), (want,) = split[3], one[3]
        assert res.remote_targets and list(res.remote_targets) == list(
            want.remote_targets)

    def test_threads_split_a_series_walk(self, monkeypatch):
        """A degree >= 1 potential walks on threads like point masses:
        two threads over interleaved chunks give the one-range bits and
        counts."""
        ps, tree, targets = _walk_case(3, False, 8)
        monkeypatch.setattr(il, "WALK_CHUNK", 16)
        runs = []
        real = il.pool.run
        monkeypatch.setattr(il.pool, "run", lambda cpus, tasks: runs.append(
            len(tasks)) or real(cpus, tasks))
        ev = TreeMultipoles(tree, ps, 3)
        one = _c_walk(tree, ps, targets, 0.67, ev, "potential")
        split = _c_walk(tree, ps, targets, 0.67, ev, "potential",
                        cpus=(0, 1))
        assert runs == [2]
        np.testing.assert_array_equal(_bits(split[0]), _bits(one[0]))
        for got, want in zip(split[1:3], one[1:3]):
            np.testing.assert_array_equal(got, want)


def _refuse_threads(cpus, tasks):
    raise AssertionError("a one-range walk was split over threads")


class TestEvaluateDirect:
    def test_lists_are_evaluator_independent(self):
        """One walk serves monopole *and* multipole evaluation."""
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.67)
        lists = build_interaction_lists(tree, ps.positions, mac)
        for degree in (0, 2):
            ev = _evaluator(tree, ps, degree)
            res = evaluate_interaction_lists(tree, lists, ps, ev,
                                             mode="potential")
            ref = traverse_reference(tree, ps, ps.positions, mac, ev,
                                     mode="potential")
            assert np.max(np.abs(res.values - ref.values)) < 1e-12


class TestOnePath:
    """The walk inlines the stock MAC and the cluster pass needs the
    cluster interface; anything else is refused, not walked
    differently."""

    def test_custom_mac_rejected(self):
        class EagerMAC(BarnesHutMAC):
            def accept(self, tree, node, targets):
                return np.ones(len(targets), dtype=bool)

        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        for mac in (EagerMAC(0.67), None):
            with pytest.raises(TypeError, match="BarnesHutMAC"):
                build_interaction_lists(tree, ps.positions[:8], mac)

    def test_evaluator_without_batch_interface_rejected(self):
        class PerNodeOnly:
            def node_force(self, node, targets):
                return np.zeros_like(targets)

        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        lists = build_interaction_lists(tree, ps.positions,
                                        BarnesHutMAC(0.67))
        with pytest.raises(TypeError, match="point_masses"):
            evaluate_interaction_lists(tree, lists, ps, PerNodeOnly(),
                                       mode="force")


class TestKernelChunking:
    def test_chunked_matches_unchunked(self):
        """The direct sum's P2P kernel holds 256 target rows per block;
        rows are computed with identical arithmetic in any block, so
        targets summed one, seven or 300 at a time equal the whole
        batch exactly."""
        rng = np.random.default_rng(17)
        t = rng.normal(size=(500, 3))
        ps = ParticleSet(rng.normal(size=(40, 3)),
                         rng.uniform(0.5, 1.5, size=40))
        full_p, full_f = direct_potentials(ps, t), direct_forces(ps, t)
        for size in (1, 7, 300):
            for lo in range(0, 500, size * 13):
                np.testing.assert_array_equal(
                    direct_potentials(ps, t[lo:lo + size]),
                    full_p[lo:lo + size])
                np.testing.assert_array_equal(
                    direct_forces(ps, t[lo:lo + size]), full_f[lo:lo + size])

    def test_direct_sum_memory_bounded(self):
        """A 20k x 20k direct sum must not allocate the O(n^2 d) pair
        tensor (9.6 GB at once): its peak temporary memory stays under
        64 MiB."""
        import tracemalloc

        n = 20_000
        rng = np.random.default_rng(23)
        ps = ParticleSet(rng.normal(size=(n, 3)), np.ones(n))
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        direct_potentials(ps)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - before < 64 * 2 ** 20
