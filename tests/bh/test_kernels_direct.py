"""Tests for interaction kernels and the direct-summation reference."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh import interaction_lists as il
from repro.bh import kernels
from repro.bh.direct import direct_forces, direct_potentials
from repro.bh.interaction_lists import (build_interaction_lists,
                                        evaluate_interaction_lists)
from repro.bh.mac import BarnesHutMAC
from repro.bh.multipole import MonopoleExpansion
from repro.bh.particles import ParticleSet
from repro.bh.tree import build_tree
from tests.oracles.kernels import point_masses_reference


def two_body():
    return ParticleSet(
        positions=np.array([[0.0, 0.0, 0.0], [2.0, 0.0, 0.0]]),
        masses=np.array([1.0, 3.0]),
    )


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint64)


def _added(out, com, mass, softening, nodes, tgt, targets, force):
    """``out`` plus the oracle's terms at the ``(d, n)`` columns
    ``targets``, added by ``np.add.at`` in list order."""
    want = out.copy()
    terms = point_masses_reference(com, mass, softening, nodes,
                                   np.asarray(targets).T[tgt], force)
    if force:
        for k in range(want.shape[0]):
            np.add.at(want[k], tgt, terms[:, k])
    else:
        np.add.at(want, tgt, terms)
    return want


def _case(rng, dims, n_nodes=300, nt=400, npairs=20_000):
    """COMs across 1e-3 .. 1e3 scales and pairs whose targets repeat;
    every 97th pair's target sits on its node's COM."""
    com = rng.normal(size=(n_nodes, dims)) * 10.0 ** rng.uniform(
        -3, 3, (n_nodes, 1))
    mass = rng.uniform(0.5, 1.5, n_nodes)
    nodes = rng.integers(0, n_nodes, npairs)
    tgt = rng.integers(0, nt, npairs)
    targets = 3.0 * rng.normal(size=(dims, nt))
    targets[:, tgt[::97]] = com[nodes[::97]].T
    return com, mass, nodes, tgt, targets


class TestPointMassesEqualsOracle:
    """The C point-mass cluster kernel (``_kernels.c`` behind
    ``interaction_lists._point_masses``) adds, bit for bit, what
    ``np.add.at`` of ``tests/oracles/kernels.py::point_masses_reference``
    adds onto the same values: compared as ``uint64`` views."""

    @pytest.mark.parametrize("softening", [0.0, 0.05])
    @pytest.mark.parametrize("dims", [2, 3])
    @pytest.mark.parametrize("force", [False, True],
                             ids=["potential", "force"])
    def test_bitwise(self, force, dims, softening):
        """Onto values already there; targets repeat (summed in list
        order) and some sit on a COM, without an FP warning."""
        rng = np.random.default_rng(dims)
        com, mass, nodes, tgt, targets = _case(rng, dims)
        got = rng.normal(size=(dims, 400) if force else 400)
        want = _added(got, com, mass, softening, nodes, tgt, targets, force)
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            il._point_masses(got, nodes, tgt, targets, com, mass, force,
                             softening ** 2)
        np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("force", [False, True],
                             ids=["potential", "force"])
    def test_target_on_the_com_contributes_exactly_zero(self, force):
        com = np.array([[1.0, -2.0, 0.5], [4.0, 4.0, 4.0]])
        targets = np.array([[1.0, 4.0], [-2.0, 4.0], [0.5, 4.0]])
        values = np.array([[1.5, 0.0], [-2.5, 0.0], [0.0, 3.0]])
        if not force:
            values = values[0].copy()
        want = values.copy()
        with np.errstate(all="raise"):
            il._point_masses(values, np.array([0, 1]), np.array([0, 1]),
                             targets, com, np.array([2.0, 3.0]), force, 0.0)
        np.testing.assert_array_equal(_bits(values), _bits(want))

    def test_empty_pair_list(self):
        empty = np.zeros(0, dtype=np.int64)
        for force in (True, False):
            out = np.ones((3, 4) if force else 4)
            il._point_masses(out, empty, empty, np.ones((3, 4)),
                             np.ones((2, 3)), np.ones(2), force, 0.0)
            assert (out == 1.0).all()

    @pytest.mark.parametrize("force", [True, False],
                             ids=["force", "potential"])
    def test_strided_views(self, force):
        """A ``values[:, lo:hi]`` slice as ``out``, a column slice and a
        transposed ``(n, d)`` view as targets, and COMs as a strided
        column view: the same bits as contiguous copies and as the
        oracle; values outside the slice are left alone."""
        rng = np.random.default_rng(5)
        d, nt, lo = 3, 64, 16
        com, mass, nodes, tgt, _ = _case(rng, d, n_nodes=50, nt=nt,
                                         npairs=600)
        wide = rng.normal(size=(2 * com.shape[0], 2 * d))
        wide[::2, 1::2] = com                 # com as a strided view
        views = [(rng.normal(size=(d, 3 * nt))[:, lo:lo + nt],
                  wide[::2, 1::2]),
                 (rng.normal(size=(2 * nt, d)).T[:, ::2], com)]
        for targets, coms in views:
            values = rng.normal(size=(d, 3 * nt) if force else 3 * nt)
            want = values.copy()
            want[..., lo:lo + nt] = _added(values[..., lo:lo + nt], com,
                                           mass, 0.01, nodes, tgt, targets,
                                           force)
            sliced = values.copy()
            il._point_masses(sliced[..., lo:lo + nt], nodes, tgt, targets,
                             coms, mass, force, 0.01 ** 2)
            dense = values[..., lo:lo + nt].copy()
            il._point_masses(dense, nodes, tgt, np.ascontiguousarray(
                targets), np.ascontiguousarray(coms), mass, force,
                0.01 ** 2)
            np.testing.assert_array_equal(_bits(sliced), _bits(want))
            np.testing.assert_array_equal(_bits(dense),
                                          _bits(want[..., lo:lo + nt]))

    def test_out_is_written_in_place_or_refused(self):
        """The kernel adds into ``out`` itself: an ``out`` it cannot
        write in place — read-only, not float64, the wrong shape for
        the mode — is refused, never copied, and left as it was."""
        args = (np.array([0, 1]), np.array([0, 3]), np.ones((3, 4)),
                np.zeros((2, 3)), np.ones(2))
        frozen = np.zeros((3, 4))
        frozen.flags.writeable = False
        cases = [(frozen, True), (np.zeros((3, 4), np.float32), True),
                 (np.zeros((2, 4)), True), (np.zeros(4), True),
                 (np.zeros((3, 4)), False), (np.zeros(4, np.int64), False)]
        for out, force in cases:
            before = out.copy()
            with pytest.raises(ValueError, match="point-mass kernel"):
                il._point_masses(out, *args, force, 0.0)
            np.testing.assert_array_equal(out, before)
        out = np.zeros((3, 4))
        il._point_masses(out, *args, True, 0.0)
        assert (out[:, [0, 3]] != 0).all() and (out[:, 1:3] == 0).all()

    def test_indices_past_the_arrays_are_refused(self):
        """The kernel indexes unchecked, so a node past the COMs or the
        masses, a target past its coordinates or the values, and node
        and target lists of different lengths are refused."""
        tp, com, mass = np.ones((3, 4)), np.zeros((5, 3)), np.ones(5)
        nodes, tgt = np.array([0, 4]), np.array([0, 3])
        il._point_masses(np.zeros((3, 4)), nodes, tgt, tp, com, mass, True,
                         0.0)
        bad = [(np.zeros((3, 4)), np.array([0, 5]), tgt, tp, com, mass),
               (np.zeros((3, 4)), np.array([-1, 0]), tgt, tp, com, mass),
               (np.zeros((3, 4)), nodes, tgt, tp, com, mass[:4]),
               (np.zeros((3, 4)), nodes, np.array([0, 4]), tp, com, mass),
               (np.zeros((3, 4)), nodes, np.array([-1, 0]), tp, com, mass),
               (np.zeros((3, 3)), nodes, tgt, tp, com, mass),
               (np.zeros((3, 4)), nodes, tgt[:1], tp, com, mass),
               (np.zeros((3, 4)), nodes, tgt, tp, com[:, :2], mass)]
        for case in bad:
            with pytest.raises(IndexError):
                il._point_masses(*case, True, 0.0)

    @pytest.mark.parametrize("mode", ["force", "potential"])
    def test_monopole_values_ignore_the_working_set(self, mode,
                                                    monkeypatch):
        """The monopole cluster pass is one kernel call per walk chunk:
        no working-set chunking regroups its sums (a numpy pass in 3 or
        10 chunks, at 208 bytes a pair, summed a target's pairs per
        chunk first)."""
        rng = np.random.default_rng(3)
        ps = ParticleSet(rng.normal(size=(600, 3)),
                         rng.uniform(0.5, 1.5, 600))
        tree = build_tree(ps, leaf_capacity=8)
        lists = build_interaction_lists(tree, ps.positions,
                                        BarnesHutMAC(0.67))
        ev = MonopoleExpansion(tree, softening=0.01)
        one = evaluate_interaction_lists(tree, lists, ps, ev, mode)
        for chunks in (3, 10):
            monkeypatch.setattr(il, "DEFAULT_WORKING_SET_BYTES",
                                lists.cluster_interactions // chunks * 208)
            many = evaluate_interaction_lists(tree, lists, ps, ev, mode)
            np.testing.assert_array_equal(_bits(many.values),
                                          _bits(one.values))


class TestKernels:
    def test_pair_potential_value(self):
        phi = kernels.pair_potential(
            np.array([[0.0, 0.0, 0.0]]),
            np.array([[3.0, 4.0, 0.0]]), np.array([2.0])
        )
        assert phi[0] == pytest.approx(-2.0 / 5.0)

    def test_pair_force_newtons_law(self):
        t = np.array([[0.0, 0.0, 0.0]])
        s = np.array([[2.0, 0.0, 0.0]])
        f = kernels.pair_force(t, s, np.array([4.0]))
        # attraction toward +x with magnitude Gm/r^2 = 4/4 = 1
        np.testing.assert_allclose(f[0], [1.0, 0.0, 0.0])

    def test_self_pair_contributes_zero(self):
        p = np.array([[1.0, 2.0, 3.0]])
        assert kernels.pair_potential(p, p, np.ones(1))[0] == 0.0
        np.testing.assert_array_equal(kernels.pair_force(p, p, np.ones(1)),
                                      np.zeros((1, 3)))

    def test_softening_caps_close_interactions(self):
        t = np.zeros((1, 3))
        s = np.array([[1e-9, 0.0, 0.0]])
        f_soft = kernels.pair_force(t, s, np.ones(1), softening=0.1)
        assert np.linalg.norm(f_soft) < 1.0 / 0.1 ** 2 + 1e-9

    def test_point_mass_matches_pair(self):
        """The one point-mass cluster formula is the pair kernel against
        a single source, softened or not."""
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, (5, 3))
        c = np.array([[3.0, 3.0, 3.0]])
        m = np.array([2.5])
        node = np.zeros(5, dtype=np.int64)
        for soft in (0.0, 0.3):
            for force, pair in ((False, kernels.pair_potential),
                                (True, kernels.pair_force)):
                got = np.zeros((3, 5) if force else 5)
                il._point_masses(got, node, np.arange(5), t.T, c, m, force,
                                 soft ** 2)
                np.testing.assert_allclose(got.T,
                                           pair(t, c, m, softening=soft))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6))
    def test_force_is_gradient_of_potential(self, seed):
        """Numerical gradient check ties force and potential kernels."""
        rng = np.random.default_rng(seed)
        src = rng.uniform(-1, 1, (4, 3))
        q = rng.uniform(0.5, 2.0, 4)
        t = rng.uniform(2.0, 3.0, (1, 3))
        f = kernels.pair_force(t, src, q)[0]
        h = 1e-6
        for axis in range(3):
            tp = t.copy(); tp[0, axis] += h
            tm = t.copy(); tm[0, axis] -= h
            dphi = (kernels.pair_potential(tp, src, q)[0]
                    - kernels.pair_potential(tm, src, q)[0]) / (2 * h)
            assert f[axis] == pytest.approx(-dphi, rel=1e-4, abs=1e-8)


class TestDirect:
    def test_two_body_potentials(self):
        ps = two_body()
        phi = direct_potentials(ps)
        np.testing.assert_allclose(phi, [-1.5, -0.5])

    def test_two_body_forces_opposite(self):
        ps = two_body()
        f = direct_forces(ps)
        # momentum conservation: m1 a1 + m2 a2 = 0
        np.testing.assert_allclose(ps.masses[0] * f[0] + ps.masses[1] * f[1],
                                   np.zeros(3), atol=1e-12)

    def test_chunking_invariance(self, monkeypatch):
        """The pair kernels chunk the targets by their working set; a
        row's bits do not depend on the chunk it lands in (no BLAS
        product, which may block rows differently by row count)."""
        rng = np.random.default_rng(1)
        ps = ParticleSet(positions=rng.uniform(0, 1, (37, 3)),
                         masses=rng.uniform(0.5, 1.5, 37))
        whole = direct_potentials(ps), direct_forces(ps)
        # 37 sources * 8 bytes * (d + 3): 1 776 bytes per target row
        for rows in (1, 2, 5, 36):
            monkeypatch.setattr(kernels, "DEFAULT_WORKING_SET_BYTES",
                                rows * 1776)
            np.testing.assert_array_equal(_bits(direct_potentials(ps)),
                                          _bits(whole[0]))
            np.testing.assert_array_equal(_bits(direct_forces(ps)),
                                          _bits(whole[1]))

    def test_explicit_targets(self):
        ps = two_body()
        t = np.array([[1.0, 0.0, 0.0]])
        phi = direct_potentials(ps, t)
        assert phi[0] == pytest.approx(-1.0 - 3.0)

    def test_sampled_reference_agrees(self):
        """The reference at a sample of the particles (how the end-to-end
        benchmark measures force error) is the full sum's rows."""
        rng = np.random.default_rng(2)
        ps = ParticleSet(positions=rng.uniform(0, 1, (100, 3)),
                         masses=np.ones(100) / 100)
        idx = rng.choice(100, size=20, replace=False)
        np.testing.assert_allclose(direct_potentials(ps, ps.positions[idx]),
                                   direct_potentials(ps)[idx])
