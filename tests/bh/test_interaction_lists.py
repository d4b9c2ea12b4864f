"""Tests for the interaction-list traversal engine.

The engine must be *observationally identical* to the classical
single-pass traversal (``tests/oracles``' ``traverse_reference``): values to
1e-12, interaction counters exactly, per-node interaction counts
exactly, per-target weights exactly, remote-target sets element-for-
element.  Plus the engine's streaming: target chunks equal one
whole-batch walk in every observable.
"""

import threading
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh import interaction_lists as il
from repro.bh import kernels
from repro.bh.direct import direct_forces, direct_potentials
from repro.bh.distributions import (
    gaussian_blobs,
    plummer,
    random_centers,
    uniform_cube,
)
from repro.bh.interaction_lists import (
    TraversalEngine,
    build_interaction_lists,
    evaluate_interaction_lists,
)
from repro.bh.mac import BarnesHutMAC
from repro.bh.morton import morton_keys
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.traversal import traverse
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import NO_CHILD, build_tree
from repro.bh.tree_repair import repair_tree
from tests.oracles.grouping import group_p2p_rows
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
        res = traverse(tree, ps, ps.positions, mac, ev, mode=mode)
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
        traverse(t2, ps, ps.positions, mac, MonopoleExpansion(t2),
                 mode="force", count_node_interactions=True)
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
        traverse(tree, ps, ps.positions, mac, ev, mode="potential",
                 target_weights=w_eng)
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
        res = traverse(tree, ps, ps.positions, mac, ev, mode="force",
                       softening=0.05)
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
        res = traverse(tree, ps, ps.positions, mac, ev)
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
    """``compute`` in chunks of ``chunk`` targets against
    ``build_interaction_lists`` + ``evaluate_interaction_lists`` over
    the whole batch: everything equal, values to summation order."""
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(il, "STREAM_CHUNK_TARGETS", chunk)
        streamed = engine.compute(
            targets, _evaluator(trees[1], ps, degree), mode=mode,
            count_node_interactions=True, target_weights=weights[1])

    assert engine.walks_built == 1
    assert engine.stream_chunks == max(1, -(-nt // chunk))
    for name in ("mac_tests", "cluster_interactions", "p2p_interactions"):
        assert getattr(streamed, name) == getattr(whole, name), name
    assert streamed.flops(degree) == whole.flops(degree)
    # integer-valued floats: bitwise
    np.testing.assert_array_equal(weights[1], weights[0])
    np.testing.assert_array_equal(trees[1].interactions,
                                  trees[0].interactions)
    assert list(streamed.remote_targets) == list(whole.remote_targets)
    assert bool(streamed.remote_targets) == (remote and nt > 0)
    for node, idx in whole.remote_targets.items():
        assert streamed.remote_targets[node].dtype == idx.dtype
        np.testing.assert_array_equal(streamed.remote_targets[node], idx)
    assert streamed.values.shape == whole.values.shape
    assert streamed.values.dtype == whole.values.dtype
    if nt:
        scale = np.abs(whole.values).max()
        assert np.abs(streamed.values - whole.values).max() <= 1e-12 * scale


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
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(il, "STREAM_CHUNK_TARGETS", 64)
            for calls, nt in enumerate((0, 65, 300), start=1):
                engine.compute(ps.positions[:nt], MonopoleExpansion(tree),
                               "force")
                assert engine.walks_built == calls
        assert engine.stream_chunks == 1 + 2 + 5
        assert engine.lists_peak_bytes > 0


#: the list arrays a walk builds only when one is read
ON_DEMAND = ("p2p_leaf", "p2p_tgt", "p2p_sizes", "mac_per_target",
             "tested_node", "tested_tgt", "tested_ok")
LIST_ARRAYS = ("cluster_node", "cluster_tgt", *ON_DEMAND)


class TestBuildsOnlyWhatTheStepReads:
    def _walks_of_compute(self, monkeypatch, **kwargs):
        """The lists of every chunk one ``compute`` walks."""
        built, build = [], il.build_interaction_lists
        monkeypatch.setattr(il, "build_interaction_lists",
                            lambda *a, **k: built.append(build(*a, **k))
                            or built[-1])
        monkeypatch.setattr(il, "STREAM_CHUNK_TARGETS", 256)
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        TraversalEngine(tree, ps, BarnesHutMAC(0.67)).compute(
            ps.positions, MonopoleExpansion(tree), "force",
            count_node_interactions=True, **kwargs)
        assert len(built) == 4 and all(b.p2p_groups for b in built)
        return built

    def test_no_mac_records_or_walk_order_rows(self, monkeypatch):
        for lists in self._walks_of_compute(monkeypatch):
            assert not set(ON_DEMAND) & set(vars(lists))

    def test_target_weights_read_the_mac_counts_alone(self, monkeypatch):
        weights = np.zeros(INSTANCES["plummer"].n)
        for lists in self._walks_of_compute(monkeypatch,
                                            target_weights=weights):
            assert set(ON_DEMAND) & set(vars(lists)) \
                == {"mac_per_target"}
        assert weights.min() > 0

    def test_nbytes_counts_a_row_array_once_read(self):
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        lists = build_interaction_lists(tree, ps.positions,
                                        BarnesHutMAC(0.67))
        for name in ON_DEMAND:
            held = lists.nbytes()
            rows = getattr(lists, name)
            assert rows.size and lists.nbytes() - held == rows.nbytes, name


def _assert_walk_equals_oracle(tree, targets, alpha, root=None):
    """``build_interaction_lists`` against the earlier walk kept verbatim
    in ``tests/oracles/walk.py``: every list array equal element for
    element, dtype included (the on-demand ones read through their
    properties), and the P2P groups the walk emits equal to
    ``group_p2p_rows`` of the oracle's rows."""
    got = build_interaction_lists(tree, targets, BarnesHutMAC(alpha),
                                  root=root)
    (cluster_node, cluster_tgt, p2p_leaf, p2p_tgt, remote, mac_tests,
     mac_per_target, tested) = walk_dfs_reference(
        tree, got.targets, alpha, il._node_classes(tree),
        tree.ROOT if root is None else root)
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
    for (tgt, starts, ns), (tgt_r, starts_r, ns_r) in zip(got.p2p_groups,
                                                          rows):
        assert ns == ns_r
        assert tgt.dtype == tgt_r.dtype and np.array_equal(tgt, tgt_r)
        assert starts.dtype == starts_r.dtype \
            and np.array_equal(starts, starts_r)
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
    assert [g[2] for g in got] == [w[2] for w in want]
    for (tgt, st, _), (tgt_w, st_w, _) in zip(got, want):
        assert tgt.dtype == tgt_w.dtype and np.array_equal(tgt, tgt_w)
        assert st.dtype == st_w.dtype and np.array_equal(st, st_w)


class TestWalkEqualsOracle:
    def test_plummer_subtree_with_outside_targets(self):
        """A branch subtree serving requesters that live elsewhere."""
        ps = INSTANCES["plummer"]
        tree = build_tree(ps, leaf_capacity=8)
        kid = int(tree.children[0][tree.children[0] != NO_CHILD][0])
        lo, hi = tree.center[kid] - tree.half[kid], \
            tree.center[kid] + tree.half[kid]
        outside = ~np.all((ps.positions > lo) & (ps.positions < hi), axis=1)
        lists = _assert_walk_equals_oracle(tree, ps.positions[outside],
                                           0.67, root=kid)
        assert lists.cluster_interactions and lists.p2p_interactions

    def test_top_tree_with_remote_leaves(self):
        ps = INSTANCES["gaussian"]
        tree = build_tree(ps, leaf_capacity=8)
        _mark_two_remote(tree)
        for root in (None, tree.ROOT):
            lists = _assert_walk_equals_oracle(tree, ps.positions, 0.67,
                                               root=root)
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
    """An evaluator whose cluster terms vanish: what
    ``evaluate_interaction_lists`` returns is its P2P pass alone."""

    def batch_force(self, nodes, targets):
        return np.zeros_like(targets)

    def batch_potential(self, nodes, targets):
        return np.zeros(len(targets))


def _listed_pairs_reference(tree, ps, lists, mode, softening):
    """Direct sums over exactly the listed (leaf slice, target) pairs."""
    direct = direct_forces if mode == "force" else direct_potentials
    out = np.zeros((lists.nt, lists.d) if mode == "force" else lists.nt)
    for leaf in np.unique(lists.p2p_leaf):
        tgt = lists.p2p_tgt[lists.p2p_leaf == leaf]
        src = ps.subset(tree.order[tree.start[leaf]:tree.end[leaf]])
        np.add.at(out, tgt, direct(src, lists.targets[tgt],
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
                tree, lists, ps, _NoClusters(), mode=mode,
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
            got = evaluate_interaction_lists(tree, lists, ps, _NoClusters(),
                                             mode=mode).values
        want = -kernels.G * 3.0 * (np.array([[-0.5, 0.0, 0.0]]) / 0.125
                                   if mode == "force" else np.array([2.0]))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("uniform", [True, False],
                             ids=["uniform", "masses"])
    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_many_chunks_equal_one(self, mode, uniform):
        ps, tree, lists = _p2p_case(3, uniform, n=250)
        assert min(g[0].size for g in lists.p2p_groups) >= 3
        one = evaluate_interaction_lists(tree, lists, ps, _NoClusters(),
                                         mode=mode)
        calls = []
        with pytest.MonkeyPatch.context() as patch:
            chunk = il._p2p_chunk
            patch.setattr(il, "_p2p_chunk",
                          lambda *a: calls.append(a[1].size) or chunk(*a))
            many = evaluate_interaction_lists(
                tree, lists, ps, _NoClusters(), mode=mode,
                working_set_bytes=1)        # one row per chunk
        assert set(calls) == {1} and len(calls) == lists.p2p_tgt.size
        assert np.abs(many.values - one.values).max() \
            <= 1e-13 * np.abs(one.values).max()

    def test_groups_hold_no_positions(self):
        ps, tree, lists = _p2p_case(3, False)
        groups = lists.p2p_groups
        assert [ns for _, _, ns in groups] == list(range(1, 9))
        # per row: one target index and one slice start
        assert sum(t.nbytes + s.nbytes for t, s, _ in groups) \
            == 16 * lists.p2p_sizes.size

    def test_sources_are_read_at_evaluation_time(self):
        """Block stepping moves sources under a reused tree: nothing
        about a source may be cached on the lists."""
        ps, tree, lists = _p2p_case(3, False)
        evaluate_interaction_lists(tree, lists, ps, _NoClusters(), "force")
        moved = ParticleSet(ps.positions + 1e-3, ps.masses)
        got = evaluate_interaction_lists(tree, lists, moved, _NoClusters(),
                                         mode="force").values
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
                                         _NoClusters(), mode="force").values
        want = _listed_pairs_reference(repair.tree, ps2, lists, "force", 0.0)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


PS = plummer(600, seed=11)
TREE = build_tree(PS, leaf_capacity=8)


def _engine():
    return TraversalEngine(TREE, PS, BarnesHutMAC(0.67), softening=0.05)


def _monopole():
    return MonopoleExpansion(TREE, softening=0.05)


class TestScratchReuse:
    """The P2P kernel scratch is one flat buffer per thread
    (``interaction_lists._thread_scratch``), shared by every evaluation
    and never attached to the lists."""

    def test_p2p_scratch_reused_across_evaluations(self):
        """A second evaluation reuses the thread's P2P scratch buffer
        instead of reallocating it."""
        eng = _engine()
        first = eng.compute(PS.positions, _monopole(), mode="force")
        buf = il._thread_scratch.buf
        assert buf.size, "the P2P pass should build scratch"
        assert buf.nbytes <= il.DEFAULT_WORKING_SET_BYTES
        second = eng.compute(PS.positions, _monopole(), mode="force")
        assert il._thread_scratch.buf is buf
        assert np.array_equal(first.values, second.values)

    def test_serial_path_also_reuses_scratch(self):
        eng = _engine()
        eng.compute(PS.positions, _monopole(), mode="potential")
        buf = il._thread_scratch.buf
        traverse(TREE, PS, PS.positions, BarnesHutMAC(0.67), _monopole(),
                 softening=0.05)
        assert il._thread_scratch.buf is buf

    def test_scratch_is_per_thread_and_lazy(self):
        """Rank threads evaluate concurrently, so each gets its own
        buffer, allocated by its first P2P pass (none at import)."""
        seen = {}

        def worker():
            seen["before"] = hasattr(il._thread_scratch, "buf")
            _engine().compute(PS.positions, _monopole())
            seen["buf"] = il._thread_scratch.buf

        _engine().compute(PS.positions, _monopole())
        t = threading.Thread(target=worker)
        t.start()
        t.join(timeout=60)
        assert not t.is_alive()
        assert seen["before"] is False
        assert seen["buf"] is not il._thread_scratch.buf


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

    def test_working_set_does_not_change_results(self):
        ps = INSTANCES["gaussian"]
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.67)
        lists = build_interaction_lists(tree, ps.positions, mac)
        ev = MonopoleExpansion(tree)
        big = evaluate_interaction_lists(tree, lists, ps, ev, mode="force")
        tiny = evaluate_interaction_lists(tree, lists, ps, ev,
                                          mode="force",
                                          working_set_bytes=4096)
        # Chunk boundaries reorder the accumulation, so agreement is to
        # the engine's 1e-12 contract, not bitwise.
        assert np.max(np.abs(big.values - tiny.values)) < 1e-12
        assert big.mac_tests == tiny.mac_tests
        assert big.cluster_interactions == tiny.cluster_interactions
        assert big.p2p_interactions == tiny.p2p_interactions


class TestOnePath:
    """The walk inlines the stock MAC and the cluster pass needs the
    batch interface; anything else is refused, not walked differently."""

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
        with pytest.raises(TypeError, match="batch_force"):
            evaluate_interaction_lists(tree, lists, ps, PerNodeOnly(),
                                       mode="force")


class TestKernelChunking:
    def test_chunked_matches_unchunked(self):
        rng = np.random.default_rng(17)
        t = rng.normal(size=(500, 3))
        s = rng.normal(size=(40, 3))
        m = rng.uniform(0.5, 1.5, size=40)
        full_p = kernels.pair_potential(t, s, m, working_set_bytes=1 << 30)
        full_f = kernels.pair_force(t, s, m, working_set_bytes=1 << 30)
        # Small working set forces many chunks; rows are computed with
        # identical arithmetic, so equality is exact.
        np.testing.assert_array_equal(
            kernels.pair_potential(t, s, m, working_set_bytes=8192), full_p)
        np.testing.assert_array_equal(
            kernels.pair_force(t, s, m, working_set_bytes=8192), full_f)

    def test_direct_sum_memory_bounded(self):
        """A 20k x 20k direct sum must not allocate the O(n^2 d) pair
        tensor (9.6 GB unchunked); peak temporary memory stays within a
        small multiple of the 16 MB default working set."""
        import tracemalloc

        n = 20_000
        rng = np.random.default_rng(23)
        t = rng.normal(size=(n, 3))
        m = np.ones(n)
        tracemalloc.start()
        before, _ = tracemalloc.get_traced_memory()
        kernels.pair_potential(t, t, m)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak - before < 4 * kernels.DEFAULT_WORKING_SET_BYTES
