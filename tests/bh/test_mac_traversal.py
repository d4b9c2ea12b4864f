"""Tests for the MAC and the batched traversal."""

import numpy as np
import pytest

from repro.bh.distributions import plummer
from repro.bh.direct import direct_forces, direct_potentials
from repro.bh.interaction_lists import TraversalEngine
from repro.bh.mac import BarnesHutMAC, sq_norm
from repro.bh.multipole import MonopoleExpansion, TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.traversal import TraversalResult, compute_potentials
from repro.bh.tree import build_tree
from tests.helpers import uniform_cube


class TestSqNorm:
    """Every MAC distance and the point-mass ``r^2`` come from
    ``sq_norm`` over coordinate columns; ``benchmarks/e2e/exact.json``
    records decisions made with ``einsum`` over ``(n, d)`` rows.  The two
    must stay bitwise equal, whatever numpy's ``einsum`` does next."""

    @pytest.mark.parametrize("dims", [2, 3])
    def test_pairing_equals_einsum_bit_for_bit(self, dims):
        rng = np.random.default_rng(dims)
        rows = 0
        for _ in range(4):                 # 4 x 2^18 rows, in slices
            n = 2 ** 18
            # one magnitude per row, then one per coordinate
            d = rng.normal(size=(n, dims)) * np.where(
                np.arange(n)[:, None] < n // 2,
                10.0 ** rng.uniform(-30, 30, (n, 1)),
                10.0 ** rng.uniform(-30, 30, (n, dims)))
            d[:64] = 0.0                   # zero rows
            d[64:128, 0] = 0.0             # and rows with a zero column
            want = np.einsum("ij,ij->i", d, d)
            got = sq_norm(np.ascontiguousarray(d.T))
            bad = np.flatnonzero(got != want)
            assert bad.size == 0, (
                f"numpy {np.__version__}: sq_norm differs from "
                f"einsum('ij,ij->i') on {bad.size} of {n} {dims}-D rows "
                f"(first {d[bad[0]].tolist()}); MAC decisions and "
                f"benchmarks/e2e/exact.json would move")
            assert np.array_equal(np.sqrt(got), np.sqrt(want))
            rows += n
        assert rows >= 10 ** 6


class TestMAC:
    def _single_node_tree(self):
        rng = np.random.default_rng(0)
        ps = ParticleSet(positions=rng.uniform(0.4, 0.6, (10, 3)),
                         masses=np.ones(10))
        # root box [0,1)^3, node side 1
        from repro.bh.particles import Box
        return build_tree(ps, box=Box(np.full(3, 0.5), 0.5),
                          leaf_capacity=100)

    def test_far_point_accepted(self):
        tree = self._single_node_tree()
        mac = BarnesHutMAC(alpha=0.67)
        far = np.array([[10.0, 0.5, 0.5]])
        assert mac.accept(tree, 0, far)[0]

    def test_near_point_rejected(self):
        tree = self._single_node_tree()
        mac = BarnesHutMAC(alpha=0.67)
        near = np.array([[1.2, 0.5, 0.5]])  # dist ~0.7 < side/alpha = 1.49
        assert not mac.accept(tree, 0, near)[0]

    def test_inside_box_always_rejected(self):
        tree = self._single_node_tree()
        # huge alpha would accept by the ratio test alone
        mac = BarnesHutMAC(alpha=100.0)
        inside = np.array([[0.9, 0.9, 0.9]])
        assert not mac.accept(tree, 0, inside)[0]

    def test_threshold_scales_with_alpha(self):
        tree = self._single_node_tree()
        pt = np.array([[2.0, 0.5, 0.5]])
        assert not BarnesHutMAC(0.5).accept(tree, 0, pt)[0]
        assert BarnesHutMAC(0.8).accept(tree, 0, pt)[0]

    def test_alpha_validated(self):
        with pytest.raises(ValueError):
            BarnesHutMAC(0.0)


class TestTraversal:
    def test_monopole_force_approximates_direct(self):
        ps = plummer(800, seed=1)
        tree = build_tree(ps)
        res = TraversalEngine(tree, ps, BarnesHutMAC(0.5)).compute(
            ps.positions, MonopoleExpansion(tree), mode="force")
        fd = direct_forces(ps)
        rel = (np.linalg.norm(res.values - fd, axis=1)
               / np.linalg.norm(fd, axis=1))
        assert np.median(rel) < 5e-3
        assert rel.max() < 0.2

    def test_smaller_alpha_is_more_accurate(self):
        ps = plummer(600, seed=2)
        pd = direct_potentials(ps)
        errs = []
        for alpha in (0.4, 0.8, 1.5):
            res = compute_potentials(ps, alpha=alpha)
            errs.append(np.linalg.norm(res.values - pd) / np.linalg.norm(pd))
        assert errs[0] < errs[1] < errs[2]

    def test_smaller_alpha_does_more_work(self):
        ps = plummer(600, seed=3)
        tree = build_tree(ps)
        strict = compute_potentials(ps, alpha=0.4, tree=tree)
        loose = compute_potentials(ps, alpha=1.2, tree=tree)
        assert (strict.cluster_interactions + strict.p2p_interactions
                > loose.cluster_interactions + loose.p2p_interactions)

    def test_higher_degree_is_more_accurate(self):
        ps = plummer(500, seed=4)
        tree = build_tree(ps, leaf_capacity=16)
        pd = direct_potentials(ps)
        errs = []
        for k in (1, 3, 5):
            res = compute_potentials(ps, alpha=0.9, degree=k, tree=tree)
            errs.append(np.linalg.norm(res.values - pd) / np.linalg.norm(pd))
        assert errs[0] > errs[1] > errs[2]

    def test_alpha_zero_limit_is_exact(self):
        """With a tiny alpha nothing is ever accepted: pure direct sums."""
        ps = plummer(120, seed=5)
        res = compute_potentials(ps, alpha=1e-9)
        np.testing.assert_allclose(res.values, direct_potentials(ps),
                                   atol=1e-10)
        assert res.cluster_interactions == 0

    def test_counters_consistency(self):
        ps = plummer(300, seed=6)
        res = compute_potentials(ps, alpha=0.7)
        assert res.mac_tests > 0
        assert res.cluster_interactions > 0
        assert res.p2p_interactions > 0
        assert res.flops(0) > 0

    def test_flops_model(self):
        r = TraversalResult(values=np.zeros(1), mac_tests=2,
                            cluster_interactions=3, p2p_interactions=5)
        # degree 4: 14*2 + (13+16*16)*3 + 29*5
        assert r.flops(4) == pytest.approx(28 + 269 * 3 + 145)
        # degree 0 charges clusters as k=1
        assert r.flops(0) == pytest.approx(28 + 29 * 3 + 145)

    def test_merge_counters(self):
        a = TraversalResult(values=np.zeros(1), mac_tests=1,
                            cluster_interactions=2, p2p_interactions=3)
        b = TraversalResult(values=np.zeros(1), mac_tests=10,
                            cluster_interactions=20, p2p_interactions=30)
        a.merge_counters(b)
        assert (a.mac_tests, a.cluster_interactions, a.p2p_interactions) \
            == (11, 22, 33)

    def test_interaction_counting_for_dpda(self):
        ps = plummer(200, seed=7)
        tree = build_tree(ps, leaf_capacity=8)
        mac = BarnesHutMAC(0.7)
        ev = MonopoleExpansion(tree)
        res = TraversalEngine(tree, ps, mac).compute(
            ps.positions, ev, count_node_interactions=True)
        # every accepted cluster interaction and every leaf pair counted
        assert tree.interactions.sum() \
            == res.cluster_interactions + res.p2p_interactions > 0

    def test_external_targets(self):
        ps = plummer(300, seed=8)
        tree = build_tree(ps)
        mac = BarnesHutMAC(0.6)
        ev = MonopoleExpansion(tree)
        targets = np.array([[50.0, 0.0, 0.0], [0.0, 50.0, 0.0]])
        res = TraversalEngine(tree, ps, mac).compute(
            targets, ev, mode="potential")
        exact = direct_potentials(ps, targets)
        np.testing.assert_allclose(res.values, exact, rtol=1e-3)

    def test_multipole_potential_beats_monopole_far_field(self):
        ps = plummer(400, seed=9)
        tree = build_tree(ps, leaf_capacity=16)
        pd = direct_potentials(ps)
        mono = compute_potentials(ps, alpha=0.9, degree=0, tree=tree)
        multi = compute_potentials(ps, alpha=0.9, degree=4, tree=tree)
        err_mono = np.linalg.norm(mono.values - pd)
        err_multi = np.linalg.norm(multi.values - pd)
        assert err_multi < err_mono

    def test_empty_targets(self):
        ps = plummer(50, seed=10)
        tree = build_tree(ps)
        res = TraversalEngine(tree, ps, BarnesHutMAC(0.7)).compute(
            np.zeros((0, 3)), MonopoleExpansion(tree))
        assert res.values.shape == (0,)

    def test_invalid_mode(self):
        ps = plummer(20, seed=11)
        tree = build_tree(ps)
        with pytest.raises(ValueError):
            TraversalEngine(tree, ps, BarnesHutMAC(0.7)).compute(
                ps.positions, MonopoleExpansion(tree), mode="energy")

    def test_remote_leaf_collects_targets(self):
        ps = plummer(100, seed=12)
        tree = build_tree(ps, leaf_capacity=8)
        # mark one internal child as remote
        child = int(tree.children[0][tree.children[0] >= 0][0])
        tree.remote_owner[child] = 3
        tree.remote_key[child] = 42
        # force descent everywhere so the remote leaf is reached
        res = TraversalEngine(tree, ps, BarnesHutMAC(1e-9)).compute(
            ps.positions, MonopoleExpansion(tree))
        assert child in res.remote_targets
        assert res.remote_targets[child].size > 0

    def test_2d_traversal(self):
        rng = np.random.default_rng(13)
        ps = ParticleSet(positions=rng.uniform(0, 1, (200, 2)),
                         masses=np.ones(200) / 200)
        tree = build_tree(ps, leaf_capacity=8)
        res = TraversalEngine(tree, ps, BarnesHutMAC(0.6)).compute(
            ps.positions, MonopoleExpansion(tree), mode="force")
        assert res.values.shape == (200, 2)
        assert np.isfinite(res.values).all()
