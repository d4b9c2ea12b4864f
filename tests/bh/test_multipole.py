"""Tests for multipole expansions: P2M, M2M, M2P, tree expansions.

The angle-form harmonics of ``examples/fmm/harmonics.py`` (loaded by
path — ``examples`` is not a package) are the independent oracle of the
library's Cartesian recurrences."""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.bh.distributions import plummer
from repro.bh.interaction_lists import evaluate_pairs
from repro.bh.multipole import (
    MonopoleExpansion,
    TreeMultipoles,
    irregular_terms,
    m2m_shift,
    n_terms,
    regular_terms,
    term_index,
)
from repro.bh.particles import ParticleSet
from repro.bh.tree import build_tree
from tests.oracles.kernels import series_reference

_spec = importlib.util.spec_from_file_location(
    "fmm_harmonics", Path(__file__).resolve().parents[2]
    / "examples" / "fmm" / "harmonics.py")
_harmonics = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(_harmonics)
spherical_coords = _harmonics.spherical_coords
spherical_harmonics = _harmonics.spherical_harmonics


def cloud(n=40, seed=0, radius=0.5):
    rng = np.random.default_rng(seed)
    pos = rng.uniform(-radius, radius, (n, 3))
    q = rng.uniform(0.1, 1.0, n)
    return pos, q


def far_targets(m=15, seed=1, dist=5.0):
    rng = np.random.default_rng(seed)
    t = rng.normal(0, 1, (m, 3))
    return t / np.linalg.norm(t, axis=1, keepdims=True) * dist


def direct_sum(targets, src, q):
    return np.array([np.sum(q / np.linalg.norm(t - src, axis=1))
                     for t in targets])


class TestIndexing:
    def test_term_index_layout(self):
        assert term_index(0, 0) == 0
        assert term_index(1, -1) == 1
        assert term_index(1, 0) == 2
        assert term_index(1, 1) == 3
        assert term_index(2, -2) == 4

    def test_term_index_bounds(self):
        with pytest.raises(ValueError):
            term_index(1, 2)

    def test_n_terms(self):
        assert n_terms(0) == 1
        assert n_terms(4) == 25
        with pytest.raises(ValueError):
            n_terms(-1)


class TestSphericalCoords:
    def test_poles_and_axes(self):
        r, ct, phi = spherical_coords(np.array([[0.0, 0.0, 2.0]]))
        assert r[0] == 2.0 and ct[0] == 1.0
        r, ct, phi = spherical_coords(np.array([[1.0, 0.0, 0.0]]))
        assert ct[0] == pytest.approx(0.0)
        assert phi[0] == pytest.approx(0.0)

    def test_origin_is_safe(self):
        r, ct, phi = spherical_coords(np.zeros((1, 3)))
        assert r[0] == 0.0 and ct[0] == 1.0


class TestSphericalHarmonics:
    def test_addition_theorem(self):
        """sum_m Y_l^{-m}(a) Y_l^m(b) = P_l(cos gamma) — the identity the
        whole expansion rests on."""
        rng = np.random.default_rng(2)
        a = rng.normal(0, 1, 3)
        b = rng.normal(0, 1, 3)
        ra, cta, pa = spherical_coords(a[None])
        rb, ctb, pb = spherical_coords(b[None])
        Ya = spherical_harmonics(cta, pa, 6)[0]
        Yb = spherical_harmonics(ctb, pb, 6)[0]
        cos_gamma = float(a @ b / (np.linalg.norm(a) * np.linalg.norm(b)))
        for l in range(7):
            total = sum(
                Ya[term_index(l, -m)] * Yb[term_index(l, m)]
                for m in range(-l, l + 1)
            )
            legendre = np.polynomial.legendre.Legendre.basis(l)(cos_gamma)
            assert total.real == pytest.approx(legendre, abs=1e-12)
            assert abs(total.imag) < 1e-12

    def test_y00_is_one(self):
        Y = spherical_harmonics(np.array([0.3]), np.array([1.2]), 2)
        assert Y[0, term_index(0, 0)] == pytest.approx(1.0)

    def test_conjugate_symmetry(self):
        Y = spherical_harmonics(np.array([0.4]), np.array([0.7]), 5)
        for l in range(6):
            for m in range(1, l + 1):
                assert Y[0, term_index(l, -m)] == pytest.approx(
                    np.conj(Y[0, term_index(l, m)])
                )


class TestExpansion3D:
    def test_p2m_m2p_converges_with_degree(self):
        src, q = cloud()
        targets = far_targets()
        direct = direct_sum(targets, src, q)
        prev_err = np.inf
        for k in (1, 3, 5, 8):
            approx = series_reference(q @ regular_terms(src, k), targets, k)
            err = np.abs(approx - direct).max()
            assert err < prev_err
            prev_err = err
        assert prev_err < 1e-6

    def test_degree_zero_is_total_charge_over_r(self):
        src, q = cloud()
        M = q @ regular_terms(src, 0)
        t = np.array([[0.0, 0.0, 4.0]])
        assert series_reference(M, t, 0)[0] == pytest.approx(q.sum() / 4.0,
                                                             rel=0.05)

    def test_error_scales_like_ratio_power(self):
        """Truncation error ~ (a/r)^{k+1}: doubling the distance cuts the
        degree-3 error by about 2^4."""
        src, q = cloud(radius=0.5)
        M = q @ regular_terms(src, 3)
        errs = []
        for dist in (3.0, 6.0):
            t = far_targets(30, seed=4, dist=dist)
            err = np.abs(series_reference(M, t, 3)
                         - direct_sum(t, src, q)).max()
            errs.append(err)
        ratio = errs[0] / errs[1]
        assert 6.0 < ratio < 50.0

    @settings(deadline=None, max_examples=15)
    @given(st.integers(0, 10**6))
    def test_m2m_exact(self, seed):
        """Shifting moments must equal recomputing them about the new
        center, for any geometry."""
        rng = np.random.default_rng(seed)
        src = rng.uniform(-1, 1, (12, 3))
        q = rng.uniform(0.1, 1.0, 12)
        shift_target = rng.uniform(-1, 1, 3)
        child = q @ regular_terms(src, 5)
        moved = m2m_shift(child, -shift_target, 5)
        direct = q @ regular_terms(src - shift_target, 5)
        np.testing.assert_allclose(moved, direct, atol=1e-10)

    def test_m2m_chain_composes(self):
        src, q = cloud(20, seed=5)
        M0 = q @ regular_terms(src, 4)
        step = np.array([0.2, -0.1, 0.3])
        # two shifts of `step` = one shift of `2*step` (shift argument is
        # old center relative to new center)
        two_steps = m2m_shift(m2m_shift(M0, step, 4), step, 4)
        one_jump = m2m_shift(M0, 2 * step, 4)
        np.testing.assert_allclose(two_steps, one_jump, atol=1e-10)

    def test_evaluate_at_center_rejected(self):
        """A tree's series at a node's own centre, through the C
        listed-pairs kernel."""
        ps = plummer(20, seed=6)
        tm = TreeMultipoles(build_tree(ps, leaf_capacity=8), ps, 2)
        root = np.array([0])
        with pytest.raises(ValueError, match="own center"):
            evaluate_pairs(np.zeros(1), tm.tree.center[:1].T, root, root, tm,
                           [], None, "potential", 0.0)

    def test_negative_degree(self):
        ps = plummer(20, seed=6)
        with pytest.raises(ValueError):
            TreeMultipoles(build_tree(ps, leaf_capacity=8), ps, -1)

    def test_regular_terms_at_origin(self):
        R = regular_terms(np.zeros((1, 3)), 3)
        assert R[0, 0] == pytest.approx(1.0)
        assert np.abs(R[0, 1:]).max() == 0.0

    def test_irregular_rejects_origin(self):
        with pytest.raises(ValueError):
            irregular_terms(np.zeros((1, 3)), 2)


class TestTreeMultipoles:
    def test_root_expansion_matches_direct_p2m(self):
        """Leaf P2M + M2M up the tree must equal a single P2M of all
        particles about the root center."""
        ps = plummer(300, seed=11)
        tree = build_tree(ps, leaf_capacity=8)
        tm = TreeMultipoles(tree, ps, degree=4)
        direct = ps.masses @ regular_terms(ps.positions - tree.center[0], 4)
        np.testing.assert_allclose(tm.coeffs[0], direct, atol=1e-9)

    def test_node_potential_sign_and_value(self):
        ps = plummer(100, seed=12)
        tree = build_tree(ps, leaf_capacity=8)
        tm = TreeMultipoles(tree, ps, degree=6)
        far = ps.center_of_mass()[None, :] + np.array([[30.0, 0.0, 0.0]])
        root, phi = np.array([0]), np.zeros(1)
        evaluate_pairs(phi, far.T, root, root, tm, [], None, "potential",
                       0.0)
        phi = phi[0]
        exact = -np.sum(ps.masses / np.linalg.norm(far - ps.positions, axis=1))
        assert phi == pytest.approx(exact, rel=1e-6)

    def test_requires_3d(self):
        rng = np.random.default_rng(13)
        ps = ParticleSet(positions=rng.uniform(0, 1, (20, 2)),
                         masses=np.ones(20))
        tree = build_tree(ps)
        with pytest.raises(ValueError):
            TreeMultipoles(tree, ps, degree=2)

    def test_monopole_evaluator_matches_kernels(self):
        ps = plummer(50, seed=14)
        tree = build_tree(ps, leaf_capacity=100)  # single node
        mono = MonopoleExpansion(tree)
        t = np.array([[20.0, 0.0, 0.0]])
        expected = -ps.total_mass / np.linalg.norm(
            t[0] - tree.com[0]
        )
        root = np.array([0])
        phi, f = np.zeros(1), np.zeros((3, 1))
        evaluate_pairs(phi, t.T, root, root, mono, [], None, "potential",
                       0.0)
        evaluate_pairs(f, t.T, root, root, mono, [], None, "force", 0.0)
        assert phi[0] == pytest.approx(expected)
        assert f[0, 0] < 0  # attraction toward the cluster


def oracle_terms(rel, degree, irregular):
    """``regular_terms`` / ``irregular_terms`` in angle form."""
    r, ct, phi = spherical_coords(rel)
    Y = spherical_harmonics(ct, phi, degree)
    out = np.empty_like(Y)
    for l in range(degree + 1):
        for m in range(-l, l + 1):
            i = term_index(l, m)
            out[:, i] = (Y[:, i] / r ** (l + 1) if irregular
                         else r ** l * Y[:, term_index(l, -m)])
    return out


@st.composite
def offsets(draw, n=12):
    """Offsets with |r| from 1e-6 to 1e6: both poles exactly (x = y = 0,
    where phi is undefined), the equator exactly (z = 0), and polar
    angles at least 0.05 from a pole (nearer, the *oracle's*
    ``sqrt(1 - cos^2)`` loses the digits under test)."""
    rows = []
    for _ in range(n):
        kind = draw(st.sampled_from(["north", "south", "equator", "any"]))
        radius = 10.0 ** draw(st.floats(-6, 6))
        phi = draw(st.floats(-math.pi, math.pi))
        if kind in ("north", "south"):
            rows.append([0.0, 0.0, radius if kind == "north" else -radius])
            continue
        theta = (math.pi / 2 if kind == "equator"
                 else draw(st.floats(0.05, math.pi - 0.05)))
        z = 0.0 if kind == "equator" else radius * math.cos(theta)
        rows.append([radius * math.sin(theta) * math.cos(phi),
                     radius * math.sin(theta) * math.sin(phi), z])
    return np.array(rows)


def assert_blocks_close(got, want, degree, tol=1e-13):
    """Per offset and per degree-``l`` block (the blocks of one row span
    ``r^degree`` in magnitude): error within ``tol`` of the block norm."""
    for l in range(degree + 1):
        block = slice(l * l, (l + 1) ** 2)
        scale = np.linalg.norm(want[:, block], axis=1, keepdims=True)
        assert np.all(np.abs(got[:, block] - want[:, block]) <= tol * scale)


class TestSolidHarmonicRecurrences:
    """The Cartesian recurrences against the angle-form oracle."""

    @settings(deadline=None, max_examples=40)
    @given(offsets(), st.integers(0, 8))
    def test_regular_terms(self, rel, degree):
        assert_blocks_close(regular_terms(rel, degree),
                            oracle_terms(rel, degree, False), degree)

    @settings(deadline=None, max_examples=40)
    @given(offsets(), st.integers(0, 8))
    def test_irregular_terms(self, rel, degree):
        assert_blocks_close(irregular_terms(rel, degree),
                            oracle_terms(rel, degree, True), degree)

    @pytest.mark.parametrize("degree", range(9))
    def test_poles_are_the_limit(self, degree):
        """At x = y = 0 only the m = 0 terms survive, with the sign
        pattern of ``P_l(+-1)``."""
        rel = np.array([[0.0, 0.0, 2.0], [0.0, 0.0, -2.0]])
        R = regular_terms(rel, degree)
        for l in range(degree + 1):
            for m in range(-l, l + 1):
                want = [2.0 ** l, (-2.0) ** l] if m == 0 else [0.0, 0.0]
                np.testing.assert_allclose(R[:, term_index(l, m)], want,
                                           rtol=1e-14, atol=0)

    @pytest.mark.parametrize("degree", range(9))
    def test_regular_terms_at_origin_is_e00(self, degree):
        R = regular_terms(np.zeros((2, 3)), degree)
        assert np.all(R[:, 0] == 1.0) and not R[:, 1:].any()

    def test_rows_do_not_depend_on_the_batch(self):
        rel = np.random.default_rng(3).normal(size=(50, 3))
        whole = regular_terms(rel, 6)
        for i in (0, 7, 49):
            assert np.array_equal(regular_terms(rel[i:i + 1], 6)[0], whole[i])


class TestM2PFromRealTable:
    """M2P contracts real harmonic rows with a real per-node table; it
    must be the real part of the complex series term for term, for
    coefficient rows *without* conjugate symmetry, at every call site."""

    @staticmethod
    def _case(degree, seed=0, n_pairs=60):
        rng = np.random.default_rng(seed)
        tree = build_tree(plummer(40, seed=seed), leaf_capacity=4)
        centers, nt = tree.center, n_terms(degree)
        coeffs = rng.normal(size=(tree.nnodes, nt)) \
            + 1j * rng.normal(size=(tree.nnodes, nt))
        nodes = rng.integers(0, tree.nnodes, n_pairs)
        targets = centers[nodes] + rng.normal(size=(n_pairs, 3)) \
            * 10.0 ** rng.uniform(-1, 1, (n_pairs, 1))
        I = oracle_terms(targets - centers[nodes], degree, True)
        want = np.einsum("ij,ij->i", I, coeffs[nodes]).real
        scale = np.einsum("ij,ij->i", np.abs(I), np.abs(coeffs[nodes]))
        return tree, coeffs, nodes, targets, want, scale

    @staticmethod
    def _call_sites(degree, tree, coeffs):
        """``(name, f(nodes, targets) -> sum q/r)`` per call site: a
        tree's series as listed pairs (the merged top tree's is one
        too), data shipping's round of fetched nodes through the shared
        passes, and the oracle's ``series_reference``."""
        from repro.core.config import SchemeConfig
        from repro.core.data_shipping import DataShippingEngine, tree_rows
        from repro.bh.interaction_lists import G

        centers = tree.center
        tm = TreeMultipoles(tree, None, degree)
        tm.coeffs[:] = coeffs
        eng = DataShippingEngine.__new__(DataShippingEngine)
        eng.config = SchemeConfig(mode="potential", degree=degree)
        n = tree.nnodes
        eng.mirror = tree_rows(tree, np.arange(1, n + 1, dtype=np.uint64),
                               np.zeros(n), tm)

        def shipped(nodes, targets):
            values = np.zeros(len(targets))
            eng._evaluate_round(values, targets.T,
                                [(i, np.flatnonzero(nodes == i))
                                 for i in range(n)], [])
            return values / -G

        def listed(nodes, targets):
            values = np.zeros(len(targets))
            evaluate_pairs(values, targets.T, nodes, np.arange(len(nodes)),
                           tm, [], None, "potential", 0.0)
            return values / -G

        def one_by_one(nodes, targets):
            return np.array([series_reference(coeffs[n], t - centers[n],
                                              degree)[0]
                             for n, t in zip(nodes, targets)])

        return [("tree", listed),
                ("shipping", shipped), ("evaluate", one_by_one)]

    @pytest.mark.parametrize("degree", [1, 2, 3, 5, 8])
    def test_equals_real_part_of_complex_series(self, degree):
        tree, coeffs, nodes, targets, want, scale = self._case(degree)
        for name, f in self._call_sites(degree, tree, coeffs):
            got = f(nodes, targets)
            assert np.all(np.abs(got - want) <= 1e-13 * scale), name

    def test_own_centre_rejected_at_every_call_site(self):
        tree, coeffs, nodes, targets, _, _ = self._case(3)
        targets[17] = tree.center[nodes[17]]
        for name, f in self._call_sites(3, tree, coeffs):
            with pytest.raises(ValueError, match="own center"):
                f(nodes, targets)
