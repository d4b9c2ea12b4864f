"""Tests for interaction kernels and the direct-summation reference."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh import interaction_lists as il
from repro.bh.direct import direct_forces, direct_potentials
from repro.bh.interaction_lists import evaluate_pairs
from repro.bh.multipole import TreeMultipoles
from repro.bh.particles import ParticleSet
from repro.bh.tree import build_tree
from repro.bh.distributions import plummer
from tests.oracles.kernels import m2p_reference, point_masses_reference


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


def _series_case(degree, seed=0, npairs=3000, nt=500):
    """A tree's degree-k series with random complex coefficients (no
    conjugate symmetry), pairs whose targets repeat, offsets across
    1e-2 .. 1e2 of the node's size, and every 50th target on its node's
    pole axis (x = y = 0 from the centre)."""
    rng = np.random.default_rng([degree, seed])
    tree = build_tree(plummer(200, seed=seed), leaf_capacity=4)
    tm = TreeMultipoles(tree, None, degree)
    tm.coeffs[:] = rng.normal(size=tm.coeffs.shape) \
        + 1j * rng.normal(size=tm.coeffs.shape)
    nodes = rng.integers(0, tree.nnodes, npairs)
    tgt = rng.integers(0, nt, npairs)
    targets = rng.normal(size=(3, nt))
    first = np.unique(tgt, return_index=True)
    off = rng.normal(size=(3, first[0].size)) * 10.0 ** rng.uniform(
        -2, 2, first[0].size)
    off[:2, ::50] = 0.0
    targets[:, first[0]] = tree.center[nodes[first[1]]].T + off
    return tm, nodes, tgt, targets


def _series_added(out, tm, nodes, tgt, targets):
    """``out`` plus the oracle's series terms, by ``np.add.at`` in list
    order."""
    want = out.copy()
    centres, table, _, degree = tm.series()
    np.add.at(want, tgt, -il.G * m2p_reference(
        table, nodes, targets[:, tgt] - centres[nodes].T, degree))
    return want


class TestSeriesEqualsOracle:
    """The degree >= 1 series through the C listed-pairs kernel
    (``interaction_lists._point_masses`` given a series) adds, bit for
    bit, what ``np.add.at`` of ``-G * m2p_reference`` adds: each term
    folded over its harmonic rows one at a time."""

    @pytest.mark.parametrize("degree", range(1, 7))
    def test_bitwise(self, degree):
        """Onto values already there; targets repeat (summed in list
        order), pole offsets included, without an FP warning; and
        one-pair lists."""
        tm, nodes, tgt, targets = _series_case(degree)
        centres, *series = tm.series()
        lists = [slice(None)] + [slice(i, i + 1) for i in range(0, 3000, 97)]
        for pairs in lists:
            got = np.random.default_rng(degree).normal(size=targets.shape[1])
            want = _series_added(got, tm, nodes[pairs], tgt[pairs], targets)
            with warnings.catch_warnings(), np.errstate(all="raise"):
                warnings.simplefilter("error")
                il._point_masses(got, nodes[pairs], tgt[pairs], targets,
                                 centres, None, False, 0.0, series)
            np.testing.assert_array_equal(_bits(got), _bits(want))

    @pytest.mark.parametrize("degree", [1, 3, 6])
    def test_one_pair_equals_its_place_in_a_list(self, degree):
        """A term's bits do not depend on the rest of the call: one
        series pair alone through ``evaluate_pairs`` adds what it adds
        inside the whole list (a numpy sum over the harmonic rows
        reduced a one-pair batch pairwise, a longer one left to
        right)."""
        tm, nodes, tgt, targets = _series_case(degree, npairs=500, nt=500)
        tgt = np.arange(500)             # one pair per target
        whole = np.zeros(500)
        evaluate_pairs(whole, targets, nodes, tgt, tm, [], None,
                       "potential", 0.0)
        for i in range(0, 500, 7):
            alone = np.zeros(500)
            evaluate_pairs(alone, targets, nodes[i:i + 1], tgt[i:i + 1], tm,
                           [], None, "potential", 0.0)
            assert _bits(alone)[i] == _bits(whole)[i], i

    @pytest.mark.parametrize("degree", [2, 5])
    def test_strided_views(self, degree):
        """A ``values[lo:hi]`` slice as ``out``, and as targets a column
        slice and a transposed ``(n, 3)`` view: the same bits as
        contiguous copies and as the oracle; values outside the slice
        are left alone."""
        tm, nodes, tgt, targets = _series_case(degree, npairs=600, nt=64)
        centres, *series = tm.series()
        lo, nt = 16, 64
        wide = np.zeros((3, 3 * nt))
        wide[:, lo:lo + nt] = targets
        rows = np.zeros((2 * nt, 3))
        rows[::2] = targets.T
        for view in (wide[:, lo:lo + nt], rows.T[:, ::2]):
            values = np.random.default_rng(degree).normal(size=3 * nt)
            want = values.copy()
            want[lo:lo + nt] = _series_added(values[lo:lo + nt], tm, nodes,
                                             tgt, targets)
            il._point_masses(values[lo:lo + nt], nodes, tgt, view, centres,
                             None, False, 0.0, series)
            np.testing.assert_array_equal(_bits(values), _bits(want))

    def test_own_centre_refused(self):
        tm, nodes, tgt, targets = _series_case(3, npairs=40, nt=40)
        targets[:, tgt[17]] = tm.tree.center[nodes[17]]
        centres, *series = tm.series()
        with pytest.raises(ValueError, match="own center"):
            il._point_masses(np.zeros(40), nodes, tgt, targets, centres,
                             None, False, 0.0, series)

    def test_only_3d_potentials(self):
        """A series is a 3-D potential: 2-D targets or a force is a
        ``ValueError``, and a node past the table an ``IndexError``."""
        tm, nodes, tgt, targets = _series_case(3, npairs=40, nt=40)
        centres, table, factors, degree = tm.series()
        for out, tp, x, force in (
                (np.zeros(40), targets[:2], centres[:, :2], False),
                (np.zeros((3, 40)), targets, centres, True)):
            with pytest.raises(ValueError, match="series 3-D"):
                il._point_masses(out, nodes, tgt, tp, x, None, force, 0.0,
                                 (table, factors, degree))
        with pytest.raises(IndexError):
            il._point_masses(np.zeros(40), nodes, tgt, targets, centres,
                             None, False, 0.0,
                             (table[:nodes.max()], factors, degree))


def _direct_of(sources, masses, softening=0.0):
    """The direct sums at ``(n, d)`` targets from ``sources`` of mass
    ``masses``: potentials, forces."""
    ps = ParticleSet(sources, masses)
    return (lambda t: direct_potentials(ps, t, softening=softening),
            lambda t: direct_forces(ps, t, softening=softening))


class TestKernels:
    """The direct sum's pair physics, through the P2P kernel."""

    def test_pair_potential_value(self):
        phi, _ = _direct_of(np.array([[3.0, 4.0, 0.0]]), np.array([2.0]))
        assert phi(np.array([[0.0, 0.0, 0.0]]))[0] == pytest.approx(-0.4)

    def test_pair_force_newtons_law(self):
        _, f = _direct_of(np.array([[2.0, 0.0, 0.0]]), np.array([4.0]))
        # attraction toward +x with magnitude Gm/r^2 = 4/4 = 1
        np.testing.assert_allclose(f(np.zeros((1, 3)))[0], [1.0, 0.0, 0.0])

    def test_self_pair_contributes_zero(self):
        p = np.array([[1.0, 2.0, 3.0]])
        phi, f = _direct_of(p, np.ones(1))
        assert phi(p)[0] == 0.0
        np.testing.assert_array_equal(f(p), np.zeros((1, 3)))

    def test_softening_caps_close_interactions(self):
        _, f = _direct_of(np.array([[1e-9, 0.0, 0.0]]), np.ones(1),
                          softening=0.1)
        assert np.linalg.norm(f(np.zeros((1, 3)))) < 1.0 / 0.1 ** 2 + 1e-9

    def test_point_mass_matches_pair(self):
        """The one point-mass cluster formula is the pair kernel against
        a single source, softened or not."""
        rng = np.random.default_rng(0)
        t = rng.normal(0, 1, (5, 3))
        c = np.array([[3.0, 3.0, 3.0]])
        m = np.array([2.5])
        node = np.zeros(5, dtype=np.int64)
        for soft in (0.0, 0.3):
            for force, pair in zip((False, True),
                                   _direct_of(c, m, softening=soft)):
                got = np.zeros((3, 5) if force else 5)
                il._point_masses(got, node, np.arange(5), t.T, c, m, force,
                                 soft ** 2)
                np.testing.assert_allclose(got.T, pair(t))

    @settings(deadline=None, max_examples=20)
    @given(st.integers(0, 10**6))
    def test_force_is_gradient_of_potential(self, seed):
        """Numerical gradient check ties force and potential kernels."""
        rng = np.random.default_rng(seed)
        phi, f = _direct_of(rng.uniform(-1, 1, (4, 3)),
                            rng.uniform(0.5, 2.0, 4))
        t = rng.uniform(2.0, 3.0, (1, 3))
        a = f(t)[0]
        h = 1e-6
        for axis in range(3):
            tp = t.copy(); tp[0, axis] += h
            tm = t.copy(); tm[0, axis] -= h
            dphi = (phi(tp)[0] - phi(tm)[0]) / (2 * h)
            assert a[axis] == pytest.approx(-dphi, rel=1e-4, abs=1e-8)


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

    def test_chunking_invariance(self):
        """The direct sum runs its targets through the P2P kernel in
        blocks of rows; a row's bits do not depend on the block it lands
        in or on the other targets of the call."""
        rng = np.random.default_rng(1)
        ps = ParticleSet(positions=rng.uniform(0, 1, (37, 3)),
                         masses=rng.uniform(0.5, 1.5, 37))
        whole = direct_potentials(ps), direct_forces(ps)
        for rows in (1, 2, 5, 36):
            t = ps.positions[:rows]
            np.testing.assert_array_equal(_bits(direct_potentials(ps, t)),
                                          _bits(whole[0][:rows]))
            np.testing.assert_array_equal(_bits(direct_forces(ps, t)),
                                          _bits(whole[1][:rows]))

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
