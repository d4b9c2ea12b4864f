"""Tests for the data-shipping (hashed octree) baseline."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from repro.bh.direct import direct_potentials
from repro.bh.distributions import gaussian_blobs, plummer
from repro.bh.interaction_lists import evaluate_pairs
from repro.bh.multipole import MonopoleExpansion
from repro.bh.particles import Box, ParticleSet
from repro.bh.tree import build_tree
from repro.core.config import SchemeConfig
from repro.core.data_shipping import DataShippingEngine, NodeRows, \
    merge_rows, tree_rows
from repro.core.partition import Cell
from repro.core.tree_build import assign_to_cells, build_local_trees, \
    local_branch_infos
from repro.core.tree_merge import merge_broadcast
from repro.machine.comm import estimate_nbytes
from repro.machine.engine import Engine
from repro.machine.profiles import CM5, NCUBE2, ZERO_COST
from tests.oracles.data_shipping import DataShippingEngine as \
    OracleDataShippingEngine

PS = plummer(500, seed=11)
ROOT = PS.bounding_box()
BITS = 10
PD = direct_potentials(PS)


def run_data_shipping(p, degree=0, alpha=0.67, profile=ZERO_COST,
                      ps=PS, mode="potential", softening=0.0,
                      leaf_capacity=8, active=None,
                      engine=DataShippingEngine, spy=None):
    """One force phase over ``8 // p`` octants per rank; ``active`` (a
    mask over ``ps``) restricts the targets, and ``spy(comm)`` may wrap
    the rank's communicator first."""
    cells_per = 8 // p
    root = ps.bounding_box()

    def main(comm):
        if spy is not None:
            spy(comm)
        cells = [Cell(1, comm.rank * cells_per + j)
                 for j in range(cells_per)]
        slots = assign_to_cells(ps.positions, cells, root, BITS)
        mine = ps.subset(slots >= 0)
        cfg = SchemeConfig(mode=mode, alpha=alpha, degree=degree,
                           softening=softening,
                           leaf_capacity=leaf_capacity)
        subs = build_local_trees(mine, cells, root, cfg, BITS)
        infos = local_branch_infos(subs, comm.rank, root, degree)
        top = merge_broadcast(comm, infos, root, degree)
        eng = engine(comm, cfg, top, subs, mine)
        vals = eng.run(None if active is None
                       else np.flatnonzero(active[mine.ids]))
        return mine.ids, vals, eng.stats

    rep = Engine(p, profile, recv_timeout=120.0).run(main)
    all_vals = np.zeros(ps.n if mode == "potential" else (ps.n, 3))
    for ids, vals, _ in rep.values:
        all_vals[ids] = vals
    return all_vals, [v[2] for v in rep.values], rep


def _rows(keys, **kw):
    """Mirror rows of unit nodes at the origin, ``kw`` overriding."""
    n = len(keys)
    base = dict(keys=np.array(keys, dtype=np.uint64),
                owner=np.zeros(n, dtype=np.int64), mass=np.ones(n),
                com=np.zeros((n, 3)), center=np.zeros((n, 3)),
                half=np.ones(n), count=np.ones(n, dtype=np.int64),
                coeffs=None, kids=np.zeros((n, 8), dtype=np.uint64),
                start=np.full(n, -1), positions=np.zeros((0, 3)),
                masses=np.zeros(0))
    base.update(kw)
    return NodeRows(**base)


class TestCache:
    def test_put_get(self):
        row_of = {5: 0}
        m = merge_rows(_rows([5]), row_of, _rows([6, 7]))
        assert row_of == {5: 0, 6: 1, 7: 2}
        assert m.keys.tolist() == [5, 6, 7]
        assert row_of.get(8) is None

    def test_merge_keeps_summary_stable(self):
        """Re-fetching a node must not change its MAC geometry."""
        row_of = {5: 0}
        kids = np.zeros((1, 8), dtype=np.uint64)
        kids[0, :2] = [40, 41]
        m = merge_rows(_rows([5], half=np.array([2.0]),
                             mass=np.array([3.0])), row_of,
                       _rows([5], half=np.array([0.5]),
                             mass=np.array([9.0]), kids=kids))
        assert m.nnodes == 1
        assert m.half[0] == 2.0
        assert m.mass[0] == 3.0
        assert m.kids[0].tolist() == [40, 41, 0, 0, 0, 0, 0, 0]

    def test_merge_adds_leaf_payload(self):
        row_of = {4: 0, 5: 1}
        mirror = _rows([4, 5], start=np.array([0, -1]),
                       positions=np.ones((1, 3)), masses=np.ones(1))
        m = merge_rows(mirror, row_of,
                       _rows([5], count=np.array([3]),
                             start=np.array([0]),
                             positions=np.zeros((3, 3)),
                             masses=np.full(3, 2.0)))
        assert m.start.tolist() == [0, 1]
        assert m.count[1] == 1  # the summary first seen
        np.testing.assert_array_equal(m.masses[1:], 2.0)

    def test_access_counter(self):
        """One octant, one leaf: the top tree's two nodes are seeded,
        each of two walks makes two lookups (each counted by the probe
        and by the table), and one node is inserted: 2 + 8 + 1."""
        root = Box(np.full(3, 0.5), 0.5)
        ps = ParticleSet(positions=[[0.1, 0.1, 0.1], [0.2, 0.2, 0.2],
                                    [0.3, 0.3, 0.3]], masses=np.ones(3))

        def main(comm):
            cfg = SchemeConfig(mode="potential", leaf_capacity=8)
            subs = build_local_trees(ps, [Cell(1, 0)], root, cfg, BITS)
            top = merge_broadcast(
                comm, local_branch_infos(subs, 0, root, 0), root, 0)
            eng = DataShippingEngine(comm, cfg, top, subs, ps)
            eng.run()
            return eng.stats

        stats = Engine(1, ZERO_COST).run(main).values[0]
        assert (stats.fetch_rounds, stats.cache_nodes) == (1, 2)
        assert stats.hash_accesses == 11


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
        targets = 3.0 * rng.normal(size=(3, 200))      # (d, n) columns
        eng = DataShippingEngine.__new__(DataShippingEngine)
        eng.config = SchemeConfig(mode=mode, softening=0.05)
        eng.mirror = tree_rows(tree, np.arange(1, tree.nnodes + 1,
                                               dtype=np.uint64),
                               np.zeros(tree.nnodes), None)
        accepted = [(n, np.flatnonzero(nodes == n))
                    for n in range(tree.nnodes)]
        values = np.zeros((3, 200) if mode == "force" else 200)
        eng._evaluate_round(values, targets, accepted, [])
        ev = MonopoleExpansion(tree, softening=0.05)
        want = np.zeros_like(values)
        evaluate_pairs(want, targets, nodes, np.arange(200), ev, [], None,
                       mode, 0.05)
        np.testing.assert_array_equal(values, want)


class TestAgainstOracle:
    """The row-table engine equals the per-node-object engine it
    replaced (``tests/oracles/data_shipping.py``) bit for bit: values,
    every ``DataShipStats`` field, every rank's clock, phase times and
    ``CommStats``."""

    @staticmethod
    def _both(**kw):
        new = run_data_shipping(profile=CM5, **kw)
        old = run_data_shipping(profile=CM5,
                                engine=OracleDataShippingEngine, **kw)
        return new, old

    def _assert_equal(self, new, old):
        (vn, sn, rn), (vo, so, ro) = new, old
        np.testing.assert_array_equal(vn, vo)
        assert [dataclasses.asdict(s) for s in sn] == \
            [dataclasses.asdict(s) for s in so]
        assert rn.parallel_time == ro.parallel_time
        for a, b in zip(rn.ranks, ro.ranks):
            assert (a.error, b.error) == (None, None)
            assert a.time == b.time
            assert a.timings.seconds == b.timings.seconds
            assert a.stats == b.stats

    @settings(deadline=None, max_examples=30)
    @given(seed=hst.integers(0, 2**16), n=hst.integers(8, 300),
           kind=hst.sampled_from(["plummer", "gaussian"]),
           p=hst.sampled_from([1, 2, 4, 8]), degree=hst.integers(0, 6),
           mode=hst.sampled_from(["potential", "force"]),
           subset=hst.booleans(), leaf_capacity=hst.integers(1, 16),
           softening=hst.sampled_from([0.0, 0.01]))
    def test_equals_oracle(self, seed, n, kind, p, degree, mode, subset,
                           leaf_capacity, softening):
        if mode == "force":
            degree = 0  # vector forces are monopole runs
        rng = np.random.default_rng(seed)
        ps = (plummer(n, seed=seed) if kind == "plummer" else
              gaussian_blobs(n, rng.uniform(10, 90, (3, 3)), 4.0,
                             seed=seed))
        active = rng.random(n) < 0.3 if subset else None
        self._assert_equal(*self._both(
            ps=ps, p=p, degree=degree, mode=mode, active=active,
            leaf_capacity=leaf_capacity, softening=softening))

    @pytest.mark.parametrize("degree", [0, 4])
    def test_equals_oracle_at_p8(self, degree):
        self._assert_equal(*self._both(p=8, degree=degree))


def test_replies_charged_their_modelled_size():
    """Summed over ranks, the bytes charged for fetch replies are the
    ``fetch_bytes`` the Section 4.2 table reports."""
    charged = []

    def spy(comm):
        send = comm.send

        def counting_send(payload, dst, tag=0, nbytes=None):
            if isinstance(payload, NodeRows):
                charged.append(estimate_nbytes(payload))
            send(payload, dst, tag, nbytes)
        comm.send = counting_send

    _, stats, _ = run_data_shipping(4, degree=3, spy=spy)
    assert sum(charged) == sum(s.fetch_bytes for s in stats) > 0


def test_own_subtrees_are_not_fetch_volume():
    """One rank fetches its own subtrees through the free self-slot: it
    runs fetch rounds but reports nothing fetched."""
    _, (stats,), _ = run_data_shipping(1)
    assert stats.fetch_rounds > 0
    assert (stats.nodes_fetched, stats.leaves_fetched, stats.fetch_bytes,
            stats.fetch_messages) == (0, 0, 0, 0)
